(** The physical-plan algebra.

    This is the {e operator tree} the paper contrasts with query trees: a
    query block loses its declarativeness here and becomes an explicit
    composition of scans, joins, filters and aggregation. Plans are
    produced by the physical optimizer and interpreted by
    {!Executor}. Expressions inside plans are ordinary IR expressions;
    any column they reference must be visible either in the node's input
    layout or in an enclosing correlation scope (index nested-loop
    probes and TIS subquery filters use the latter). *)

open Sqlir

type jmethod = Nested_loop | Hash | Merge

type jrole = Inner | Semi | Anti | Anti_na | Left_outer

(** Bound of an index range scan; the expression may reference
    correlation scopes but not the scanned table. *)
type rbound = R_unbounded | R_incl of Ast.expr | R_excl of Ast.expr

(** Partition-pruning spec of a {!Part_scan}: the restriction of the
    scan's WHERE conjuncts to the partition key, {e evaluated at open
    time} against the actual bind values — a cached plan must prune
    correctly for binds other than the ones it was compiled under, so
    the plan carries the pruning {e predicate}, never a baked partition
    list. The expressions must be uncorrelated (constants and binds).
    Pruning is pure optimization: the originating conjunct always stays
    in the scan's [filter], so a pruned scan returns exactly the rows
    the unpruned scan would. *)
type prune =
  | Pr_none  (** scan every partition *)
  | Pr_eq of Ast.expr  (** key = e: at most one surviving partition *)
  | Pr_range of rbound * rbound
      (** lo <= key <= hi: contiguous surviving range (range scheme
          only; hash-partitioned tables cannot range-prune) *)

type t =
  | Table_scan of { table : string; alias : string; filter : Ast.pred list }
  | Part_scan of {
      table : string;
      alias : string;
      filter : Ast.pred list;
      prune : prune;
    }
      (** full scan of a partitioned table, partition by partition in
          ascending partition order, skipping pruned partitions. Pages
          are charged as the {e sum of per-partition ceilings} of the
          surviving partitions (see {!Storage.Relation.part_pages}) —
          a deliberately different charging contract from [Table_scan],
          interpreted identically by every engine. Under an
          {!Exchange}, the executor restricts the scan to the domain's
          assigned partition. *)
  | Exchange of { child : t; dop : int }
      (** partition-parallel execution of [child] across [dop] OCaml
          domains: each surviving partition of the child's partitioned
          scans becomes one task, a domain executes the child with its
          scans restricted to that partition, and the coordinator
          concatenates the per-partition results in ascending partition
          order — making rows {e and} merged meters bit-identical to
          serial execution of the same plan at every dop. *)
  | Partial_agg of {
      child : t;
      alias : string;
      keys : (Ast.expr * string) list;
      aggs : (string * Ast.agg * Ast.expr option) list;
          (** non-DISTINCT aggregates only; hash strategy *)
    }
      (** per-partition aggregation emitting accumulator-state rows
          (see {!partial_state_cols}); combined by a {!Final_agg} above
          the exchange *)
  | Final_agg of {
      child : t;
      alias : string;
      keys : string list;  (** output names of the group keys *)
      aggs : (string * Ast.agg) list;
    }
      (** combines {!Partial_agg} state rows into final aggregate
          values; groups by the key positions of the partial layout *)
  | Index_scan of {
      table : string;
      alias : string;
      index : string;
      prefix : Ast.expr list;  (** equality-bound leading key columns *)
      lo : rbound;
      hi : rbound;
      filter : Ast.pred list;  (** residual predicates *)
    }
  | Join of {
      meth : jmethod;
      role : jrole;
      left : t;
      right : t;
      cond : Ast.pred list;
          (** all join conjuncts; hash/merge require at least one
              equi-conjunct between the sides *)
    }
  | Filter of { child : t; preds : Ast.pred list }
  | Subq_filter of { child : t; preds : subq_pred list }
      (** tuple-iteration-semantics evaluation of non-unnested
          subqueries, with correlation-value caching *)
  | Project of { child : t; alias : string; items : (Ast.expr * string) list }
  | Aggregate of {
      child : t;
      strategy : [ `Hash | `Sort ];
      alias : string;  (** output alias for keys and aggregates *)
      keys : (Ast.expr * string) list;
      aggs : (string * Ast.agg * Ast.expr option * bool) list;
          (** output name, aggregate, argument, DISTINCT *)
    }
  | Window of {
      child : t;
      alias : string;
      wins : (string * Ast.agg * Ast.expr option * Ast.win) list;
    }
  | Distinct of t
  | Sort of { child : t; keys : (Ast.expr * Ast.dir) list }
  | Limit of { child : t; n : int }
  | Limit_filter of { child : t; preds : Ast.pred list; n : int }
      (** streaming filter + ROWNUM: evaluates [preds] row by row and
          stops as soon as [n] rows qualify — the operator predicate
          pullup (Section 2.2.6) relies on: expensive predicates pulled
          above a blocking operator only run until the quota fills *)
  | Union_all of t list
  | Setop_exec of { op : [ `Intersect | `Minus ]; left : t; right : t }
      (** untransformed INTERSECT / MINUS (Section 2.2.7): set
          semantics, NULL matches NULL *)

and subq_pred =
  | SP_exists of { negated : bool; plan : t }
  | SP_in of { negated : bool; lhs : Ast.expr list; plan : t }
      (** NOT IN uses null-aware (ALL) semantics *)
  | SP_cmp of { op : Ast.cmp; lhs : Ast.expr; quant : Ast.quant option; plan : t }

(** Tables keyed by a plan node's physical identity: annotation reuse
    can share subtrees, and a shared node is one key. *)
module Ptbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(** Column names of a {!Partial_agg}'s accumulator-state output, after
    the group keys: one column per aggregate, except [Avg] which
    decomposes into a running sum and a non-null count (recombined by
    the {!Final_agg}; [sum/count] is the only decomposition that merges
    exactly across partitions). *)
let partial_state_cols (aggs : (string * Ast.agg * Ast.expr option) list) :
    string list =
  List.concat_map
    (fun (n, a, _) ->
      match a with Ast.Avg -> [ n ^ "$sum"; n ^ "$cnt" ] | _ -> [ n ])
    aggs

(** Output layout of a plan: the (alias, column) pair at each row
    position. *)
let rec layout (p : t) (cat : Catalog.t) : (string * string) array =
  match p with
  | Table_scan { table; alias; _ } | Part_scan { table; alias; _ } ->
      let def = Catalog.find_table cat table in
      Array.of_list
        (List.map (fun c -> (alias, c.Catalog.c_name)) def.t_cols)
  | Exchange { child; _ } -> layout child cat
  | Partial_agg { alias; keys; aggs; _ } ->
      Array.of_list
        (List.map (fun (_, n) -> (alias, n)) keys
        @ List.map (fun n -> (alias, n)) (partial_state_cols aggs))
  | Final_agg { alias; keys; aggs; _ } ->
      Array.of_list
        (List.map (fun n -> (alias, n)) keys
        @ List.map (fun (n, _) -> (alias, n)) aggs)
  | Index_scan { table; alias; _ } ->
      let def = Catalog.find_table cat table in
      Array.of_list
        (List.map (fun c -> (alias, c.Catalog.c_name)) def.t_cols)
  | Join { role = Semi | Anti | Anti_na; left; _ } -> layout left cat
  | Join { left; right; _ } -> Array.append (layout left cat) (layout right cat)
  | Filter { child; _ } | Subq_filter { child; _ } -> layout child cat
  | Project { alias; items; _ } ->
      Array.of_list (List.map (fun (_, n) -> (alias, n)) items)
  | Aggregate { alias; keys; aggs; _ } ->
      Array.of_list
        (List.map (fun (_, n) -> (alias, n)) keys
        @ List.map (fun (n, _, _, _) -> (alias, n)) aggs)
  | Window { child; alias; wins } ->
      Array.append (layout child cat)
        (Array.of_list (List.map (fun (n, _, _, _) -> (alias, n)) wins))
  | Distinct c | Sort { child = c; _ } | Limit { child = c; _ }
  | Limit_filter { child = c; _ } ->
      layout c cat
  | Union_all [] -> [||]
  | Union_all (c :: _) -> layout c cat
  | Setop_exec { left; _ } -> layout left cat

let jmethod_str = function
  | Nested_loop -> "NESTED LOOPS"
  | Hash -> "HASH JOIN"
  | Merge -> "MERGE JOIN"

let jrole_str = function
  | Inner -> ""
  | Semi -> " SEMI"
  | Anti -> " ANTI"
  | Anti_na -> " ANTI NA"
  | Left_outer -> " OUTER"

(** Explain-style rendering; used by tests, the CLI, and as the plan
    fingerprint for detecting plan changes when CBQT is toggled. *)
let rec pp ?(indent = 0) ppf (p : t) =
  let pad = String.make (indent * 2) ' ' in
  let child = indent + 1 in
  match p with
  | Table_scan { table; alias; filter } ->
      Fmt.pf ppf "%sTABLE SCAN %s %s%a@." pad table alias pp_filter filter
  | Part_scan { table; alias; filter; prune } ->
      Fmt.pf ppf "%sPART SCAN %s %s%a%a@." pad table alias pp_prune prune
        pp_filter filter
  | Exchange { child = c; dop } ->
      Fmt.pf ppf "%sEXCHANGE dop=%d@.%a" pad dop (pp ~indent:child) c
  | Partial_agg { child = c; alias; keys; aggs } ->
      Fmt.pf ppf "%sPARTIAL GROUP BY %s keys=[%a] aggs=[%a]@.%a" pad alias
        (Fmt.list ~sep:Fmt.comma (fun ppf (e, n) ->
             Fmt.pf ppf "%a AS %s" Pp.pp_expr e n))
        keys
        (Fmt.list ~sep:Fmt.comma (fun ppf (n, a, _) ->
             Fmt.pf ppf "%s:%s" n (Pp.agg_str a)))
        aggs (pp ~indent:child) c
  | Final_agg { child = c; alias; keys; aggs } ->
      Fmt.pf ppf "%sFINAL GROUP BY %s keys=[%a] aggs=[%a]@.%a" pad alias
        (Fmt.list ~sep:Fmt.comma Fmt.string)
        keys
        (Fmt.list ~sep:Fmt.comma (fun ppf (n, a) ->
             Fmt.pf ppf "%s:%s" n (Pp.agg_str a)))
        aggs (pp ~indent:child) c
  | Index_scan { table; alias; index; prefix; filter; _ } ->
      Fmt.pf ppf "%sINDEX SCAN %s(%s) %s prefix=[%a]%a@." pad table index
        alias
        (Fmt.list ~sep:Fmt.comma Pp.pp_expr)
        prefix pp_filter filter
  | Join { meth; role; left; right; cond } ->
      Fmt.pf ppf "%s%s%s on [%a]@.%a%a" pad (jmethod_str meth) (jrole_str role)
        (Fmt.list ~sep:(Fmt.any " AND ") Pp.pp_pred)
        cond (pp ~indent:child) left (pp ~indent:child) right
  | Filter { child = c; preds } ->
      Fmt.pf ppf "%sFILTER [%a]@.%a" pad
        (Fmt.list ~sep:(Fmt.any " AND ") Pp.pp_pred)
        preds (pp ~indent:child) c
  | Subq_filter { child = c; preds } ->
      Fmt.pf ppf "%sSUBQUERY FILTER (%d subqueries)@.%a" pad
        (List.length preds) (pp ~indent:child) c;
      List.iter
        (fun sp ->
          let plan =
            match sp with
            | SP_exists { plan; _ } | SP_in { plan; _ } | SP_cmp { plan; _ } ->
                plan
          in
          pp ~indent:(child + 1) ppf plan)
        preds
  | Project { child = c; alias; items } ->
      Fmt.pf ppf "%sPROJECT %s [%a]@.%a" pad alias
        (Fmt.list ~sep:Fmt.comma (fun ppf (e, n) ->
             Fmt.pf ppf "%a AS %s" Pp.pp_expr e n))
        items (pp ~indent:child) c
  | Aggregate { child = c; strategy; keys; aggs; alias } ->
      Fmt.pf ppf "%sGROUP BY (%s) %s keys=[%a] aggs=[%a]@.%a" pad
        (match strategy with `Hash -> "HASH" | `Sort -> "SORT")
        alias
        (Fmt.list ~sep:Fmt.comma (fun ppf (e, n) ->
             Fmt.pf ppf "%a AS %s" Pp.pp_expr e n))
        keys
        (Fmt.list ~sep:Fmt.comma (fun ppf (n, a, _, _) ->
             Fmt.pf ppf "%s:%s" n (Pp.agg_str a)))
        aggs (pp ~indent:child) c
  | Window { child = c; wins; alias } ->
      Fmt.pf ppf "%sWINDOW %s [%a]@.%a" pad alias
        (Fmt.list ~sep:Fmt.comma (fun ppf (n, a, _, _) ->
             Fmt.pf ppf "%s:%s" n (Pp.agg_str a)))
        wins (pp ~indent:child) c
  | Distinct c -> Fmt.pf ppf "%sDISTINCT@.%a" pad (pp ~indent:child) c
  | Sort { child = c; keys } ->
      Fmt.pf ppf "%sSORT [%a]@.%a" pad
        (Fmt.list ~sep:Fmt.comma (fun ppf (e, d) ->
             Fmt.pf ppf "%a %s" Pp.pp_expr e (Pp.dir_str d)))
        keys (pp ~indent:child) c
  | Limit { child = c; n } ->
      Fmt.pf ppf "%sROWNUM <= %d@.%a" pad n (pp ~indent:child) c
  | Limit_filter { child = c; preds; n } ->
      Fmt.pf ppf "%sFILTER+ROWNUM <= %d [%a]@.%a" pad n
        (Fmt.list ~sep:(Fmt.any " AND ") Pp.pp_pred)
        preds (pp ~indent:child) c
  | Union_all cs ->
      Fmt.pf ppf "%sUNION ALL@." pad;
      List.iter (pp ~indent:child ppf) cs
  | Setop_exec { op; left; right } ->
      Fmt.pf ppf "%s%s@.%a%a" pad
        (match op with `Intersect -> "INTERSECT" | `Minus -> "MINUS")
        (pp ~indent:child) left (pp ~indent:child) right

and pp_filter ppf = function
  | [] -> ()
  | ps ->
      Fmt.pf ppf " filter=[%a]" (Fmt.list ~sep:(Fmt.any " AND ") Pp.pp_pred) ps

and pp_prune ppf = function
  | Pr_none -> ()
  | Pr_eq e -> Fmt.pf ppf " prune=(key = %a)" Pp.pp_expr e
  | Pr_range (lo, hi) ->
      let b name ppf = function
        | R_unbounded -> ()
        | R_incl e -> Fmt.pf ppf " %s= %a" name Pp.pp_expr e
        | R_excl e -> Fmt.pf ppf " %s %a" name Pp.pp_expr e
      in
      Fmt.pf ppf " prune=(key%a%a)" (b ">") lo (b "<") hi

let to_string p = Fmt.str "%a" (pp ~indent:0) p

(** Fingerprint used by the workload runner's plan differ. *)
let fingerprint p = Digest.to_hex (Digest.string (to_string p))

(** One-line label for a node (no children), for EXPLAIN ANALYZE rows
    and trace span names. *)
let node_label (p : t) : string =
  match p with
  | Table_scan { table; alias; _ } ->
      Printf.sprintf "TABLE SCAN %s %s" table alias
  | Part_scan { table; alias; prune; _ } ->
      Printf.sprintf "PART SCAN %s %s%s" table alias
        (match prune with Pr_none -> "" | _ -> " (pruned)")
  | Exchange { dop; _ } -> Printf.sprintf "EXCHANGE (dop %d)" dop
  | Partial_agg { alias; keys; _ } ->
      Printf.sprintf "PARTIAL GROUP BY %s (%d keys)" alias (List.length keys)
  | Final_agg { alias; keys; _ } ->
      Printf.sprintf "FINAL GROUP BY %s (%d keys)" alias (List.length keys)
  | Index_scan { table; alias; index; _ } ->
      Printf.sprintf "INDEX SCAN %s(%s) %s" table index alias
  | Join { meth; role; _ } -> jmethod_str meth ^ jrole_str role
  | Filter { preds; _ } -> Printf.sprintf "FILTER (%d preds)" (List.length preds)
  | Subq_filter { preds; _ } ->
      Printf.sprintf "SUBQUERY FILTER (%d subqueries)" (List.length preds)
  | Project { alias; items; _ } ->
      Printf.sprintf "PROJECT %s (%d cols)" alias (List.length items)
  | Aggregate { strategy; alias; keys; _ } ->
      Printf.sprintf "GROUP BY (%s) %s (%d keys)"
        (match strategy with `Hash -> "HASH" | `Sort -> "SORT")
        alias (List.length keys)
  | Window { alias; wins; _ } ->
      Printf.sprintf "WINDOW %s (%d fns)" alias (List.length wins)
  | Distinct _ -> "DISTINCT"
  | Sort { keys; _ } -> Printf.sprintf "SORT (%d keys)" (List.length keys)
  | Limit { n; _ } -> Printf.sprintf "ROWNUM <= %d" n
  | Limit_filter { n; preds; _ } ->
      Printf.sprintf "FILTER+ROWNUM <= %d (%d preds)" n (List.length preds)
  | Union_all cs -> Printf.sprintf "UNION ALL (%d branches)" (List.length cs)
  | Setop_exec { op; _ } -> (
      match op with `Intersect -> "INTERSECT" | `Minus -> "MINUS")

(** Direct children of a node. Subquery plans embedded in a
    [Subq_filter]'s predicates count as children: they do real metered
    work during execution, so any accounting walk must visit them. *)
let children (p : t) : t list =
  match p with
  | Table_scan _ | Part_scan _ | Index_scan _ -> []
  | Join { left; right; _ } -> [ left; right ]
  | Filter { child; _ }
  | Project { child; _ }
  | Aggregate { child; _ }
  | Window { child; _ }
  | Sort { child; _ }
  | Limit { child; _ }
  | Limit_filter { child; _ }
  | Exchange { child; _ }
  | Partial_agg { child; _ }
  | Final_agg { child; _ } ->
      [ child ]
  | Subq_filter { child; preds } ->
      child
      :: List.map
           (function
             | SP_exists { plan; _ } | SP_in { plan; _ } | SP_cmp { plan; _ }
               ->
                 plan)
           preds
  | Distinct c -> [ c ]
  | Union_all cs -> cs
  | Setop_exec { left; right; _ } -> [ left; right ]

(** Every [Part_scan] of [p], in preorder — the scans an enclosing
    {!Exchange} derives its partition task list from (the union of
    their pruning survivors). Includes subquery plans: an exchange may
    not legally contain one over a partitioned table (the restriction
    would change subquery semantics — {!Analysis.Plan_check} rejects
    it), but accounting walks must still see the scan. *)
let rec part_scans (p : t) : (string * prune) list =
  (match p with
  | Part_scan { table; prune; _ } -> [ (table, prune) ]
  | _ -> [])
  @ List.concat_map part_scans (children p)

(** All column references embedded anywhere in a plan (scan filters,
    probe expressions, join conditions, projections, aggregates, nested
    subquery plans). Used to determine a sub-plan's correlation
    columns: the references that resolve to an enclosing scope rather
    than to the plan's own outputs. *)
let all_cols (p : t) : Ast.col list =
  let add acc c = if List.mem c acc then acc else c :: acc in
  let expr acc e = Walk.fold_expr_cols add acc e in
  let pred acc p = Walk.fold_pred_cols ~deep:true add acc p in
  let rec go acc p =
    match p with
    | Table_scan { filter; _ } -> List.fold_left pred acc filter
    | Part_scan { filter; prune; _ } ->
        let acc = List.fold_left pred acc filter in
        (match prune with
        | Pr_none -> acc
        | Pr_eq e -> expr acc e
        | Pr_range (lo, hi) ->
            let bound acc = function
              | R_unbounded -> acc
              | R_incl e | R_excl e -> expr acc e
            in
            bound (bound acc lo) hi)
    | Exchange { child; _ } -> go acc child
    | Partial_agg { child; keys; aggs; _ } ->
        let acc = go acc child in
        let acc = List.fold_left (fun acc (e, _) -> expr acc e) acc keys in
        List.fold_left
          (fun acc (_, _, eo) ->
            match eo with Some e -> expr acc e | None -> acc)
          acc aggs
    | Final_agg { child; _ } -> go acc child
    | Index_scan { prefix; lo; hi; filter; _ } ->
        let acc = List.fold_left expr acc prefix in
        let acc =
          match lo with R_unbounded -> acc | R_incl e | R_excl e -> expr acc e
        in
        let acc =
          match hi with R_unbounded -> acc | R_incl e | R_excl e -> expr acc e
        in
        List.fold_left pred acc filter
    | Join { left; right; cond; _ } ->
        List.fold_left pred (go (go acc left) right) cond
    | Filter { child; preds } -> List.fold_left pred (go acc child) preds
    | Subq_filter { child; preds } ->
        List.fold_left
          (fun acc sp ->
            match sp with
            | SP_exists { plan; _ } -> go acc plan
            | SP_in { lhs; plan; _ } -> go (List.fold_left expr acc lhs) plan
            | SP_cmp { lhs; plan; _ } -> go (expr acc lhs) plan)
          (go acc child) preds
    | Project { child; items; _ } ->
        List.fold_left (fun acc (e, _) -> expr acc e) (go acc child) items
    | Aggregate { child; keys; aggs; _ } ->
        let acc = go acc child in
        let acc = List.fold_left (fun acc (e, _) -> expr acc e) acc keys in
        List.fold_left
          (fun acc (_, _, eo, _) ->
            match eo with Some e -> expr acc e | None -> acc)
          acc aggs
    | Window { child; wins; _ } ->
        List.fold_left
          (fun acc (_, _, eo, w) ->
            let acc = match eo with Some e -> expr acc e | None -> acc in
            let acc = List.fold_left expr acc w.Ast.w_pby in
            List.fold_left (fun acc (e, _) -> expr acc e) acc w.Ast.w_oby)
          (go acc child) wins
    | Distinct c | Sort { child = c; _ } | Limit { child = c; _ } ->
        (match p with
        | Sort { keys; _ } ->
            List.fold_left (fun acc (e, _) -> expr acc e) (go acc c) keys
        | _ -> go acc c)
    | Limit_filter { child = c; preds; _ } ->
        List.fold_left pred (go acc c) preds
    | Union_all cs -> List.fold_left go acc cs
    | Setop_exec { left; right; _ } -> go (go acc left) right
  in
  List.rev (go [] p)

(** Positions in [layout] referenced by [plan] — its correlation
    bindings into that scope. *)
let corr_positions (plan : t) (layout : (string * string) array) : int list =
  let cols = all_cols plan in
  let hits = ref [] in
  Array.iteri
    (fun i (a, c) ->
      if List.exists (fun col -> col.Ast.c_alias = a && col.Ast.c_col = c) cols
      then hits := i :: !hits)
    layout;
  List.rev !hits

(** Count of expensive (procedural-function) conjuncts, used by the
    cost model to charge per-row function invocations. *)
let n_expensive_preds (preds : Ast.pred list) : int =
  let rec expr_expensive (e : Ast.expr) =
    match e with
    | Ast.Fn (n, args) ->
        Funcs.is_expensive n || List.exists expr_expensive args
    | Ast.Binop (_, a, b) -> expr_expensive a || expr_expensive b
    | Ast.Neg a -> expr_expensive a
    | Ast.Case (arms, els) ->
        List.exists (fun (_, e) -> expr_expensive e) arms
        || (match els with Some e -> expr_expensive e | None -> false)
    | _ -> false
  and pred_expensive (p : Ast.pred) =
    match p with
    | Ast.Pred_fn (n, args) ->
        Funcs.is_expensive n || List.exists expr_expensive args
    | Ast.Cmp (_, a, b) -> expr_expensive a || expr_expensive b
    | Ast.Not a | Ast.Lnnvl a -> pred_expensive a
    | Ast.And (a, b) | Ast.Or (a, b) -> pred_expensive a || pred_expensive b
    | Ast.Between (a, b, c) ->
        expr_expensive a || expr_expensive b || expr_expensive c
    | _ -> false
  in
  List.length (List.filter pred_expensive preds)

(** Order conjuncts cheap-first so short-circuit evaluation touches
    expensive predicates as late as possible. Stable otherwise. *)
let order_preds (preds : Ast.pred list) : Ast.pred list =
  let cheap, expensive =
    List.partition
      (fun p -> n_expensive_preds [ p ] = 0)
      preds
  in
  cheap @ expensive
