(** SQL text rendering owned by the benchmark.

    The workloads hand the program SQL text only. The text is rendered
    here rather than with [Sqlir.Pp], so that changes to the printer
    never change the statements the benchmark sends. The renderer
    covers the IR the query generator produces: inner joins written as
    comma-separated FROM lists with join predicates in WHERE, views,
    subquery predicates, set operations and ROWNUM limits. Anything
    else raises {!Unsupported}. *)

open Sqlir
module A = Ast
module V = Value

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let value = function
  | V.Null -> "NULL"
  | V.Int n when n >= 0 -> string_of_int n
  | V.Int n -> unsupported "negative integer literal %d" n
  | V.Float f when Float.is_finite f && f >= 0. -> Printf.sprintf "%.17g" f
  | V.Float f -> unsupported "float literal %g" f
  | V.Str s ->
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string b "''" else Buffer.add_char b c)
        s;
      Buffer.add_char b '\'';
      Buffer.contents b
  | V.Bool b -> if b then "TRUE" else "FALSE"
  | V.Date d when d >= 0 -> Printf.sprintf "DATE %d" d
  | V.Date d -> unsupported "negative date literal %d" d

let cmp = function
  | A.Eq -> "="
  | A.Ne -> "<>"
  | A.Lt -> "<"
  | A.Le -> "<="
  | A.Gt -> ">"
  | A.Ge -> ">="

let arith = function A.Add -> "+" | A.Sub -> "-" | A.Mul -> "*" | A.Div -> "/"

let agg = function
  | A.Count_star | A.Count -> "COUNT"
  | A.Sum -> "SUM"
  | A.Avg -> "AVG"
  | A.Min -> "MIN"
  | A.Max -> "MAX"

let list f xs = String.concat ", " (List.map f xs)

let rec expr = function
  | A.Const v -> value v
  | A.Bind (i, _) -> Printf.sprintf ":%d" (i + 1)
  | A.Col c -> c.A.c_alias ^ "." ^ c.A.c_col
  | A.Binop (op, a, b) -> Printf.sprintf "(%s %s %s)" (expr a) (arith op) (expr b)
  | A.Neg a -> Printf.sprintf "(-%s)" (expr a)
  | A.Agg (A.Count_star, _, _) -> "COUNT(*)"
  | A.Agg (a, Some e, d) ->
      Printf.sprintf "%s(%s%s)" (agg a) (if d then "DISTINCT " else "") (expr e)
  | A.Agg (_, None, _) -> unsupported "aggregate without argument"
  | A.Win _ -> unsupported "window function"
  | A.Fn (n, args) -> Printf.sprintf "%s(%s)" n (list expr args)
  | A.Case (arms, els) ->
      Printf.sprintf "CASE%s%s END"
        (String.concat ""
           (List.map
              (fun (p, e) -> Printf.sprintf " WHEN %s THEN %s" (pred p) (expr e))
              arms))
        (match els with None -> "" | Some e -> " ELSE " ^ expr e)

and lhs = function [ e ] -> expr e | es -> "(" ^ list expr es ^ ")"

and pred = function
  | A.True -> "TRUE"
  | A.False -> "FALSE"
  | A.Cmp (op, a, b) -> Printf.sprintf "%s %s %s" (expr a) (cmp op) (expr b)
  | A.Between (a, lo, hi) ->
      Printf.sprintf "%s BETWEEN %s AND %s" (expr a) (expr lo) (expr hi)
  | A.Is_null a -> expr a ^ " IS NULL"
  | A.Not (A.Is_null a) -> expr a ^ " IS NOT NULL"
  | A.Not p -> Printf.sprintf "NOT (%s)" (pred p)
  | A.Lnnvl _ -> unsupported "LNNVL"
  | A.And (a, b) -> Printf.sprintf "(%s AND %s)" (pred a) (pred b)
  | A.Or (a, b) -> Printf.sprintf "(%s OR %s)" (pred a) (pred b)
  | A.In_list (e, vs) -> Printf.sprintf "%s IN (%s)" (expr e) (list value vs)
  | A.In_subq (es, q) -> Printf.sprintf "%s IN (%s)" (lhs es) (query q)
  | A.Not_in_subq (es, q) -> Printf.sprintf "%s NOT IN (%s)" (lhs es) (query q)
  | A.Exists q -> Printf.sprintf "EXISTS (%s)" (query q)
  | A.Not_exists q -> Printf.sprintf "NOT EXISTS (%s)" (query q)
  | A.Cmp_subq (op, e, qt, q) ->
      Printf.sprintf "%s %s %s(%s)" (expr e) (cmp op)
        (match qt with None -> "" | Some A.Q_any -> "ANY " | Some A.Q_all -> "ALL ")
        (query q)
  | A.Pred_fn (n, args) -> Printf.sprintf "%s(%s)" n (list expr args)

and from_entry (fe : A.from_entry) =
  if fe.A.fe_kind <> A.J_inner || fe.A.fe_cond <> [] then
    unsupported "non-inner join entry %s" fe.A.fe_alias;
  match fe.A.fe_source with
  | A.S_table t -> t ^ " " ^ fe.A.fe_alias
  | A.S_view q -> Printf.sprintf "(%s) %s" (query q) fe.A.fe_alias

and block (b : A.block) =
  let clause kw sep f = function
    | [] -> ""
    | xs -> " " ^ kw ^ " " ^ String.concat sep (List.map f xs)
  in
  let where =
    List.map pred b.A.where
    @ (match b.A.limit with
      | None -> []
      | Some n -> [ Printf.sprintf "ROWNUM <= %d" n ])
  in
  String.concat ""
    [
      "SELECT ";
      (if b.A.distinct then "DISTINCT " else "");
      list (fun si -> expr si.A.si_expr ^ " AS " ^ si.A.si_name) b.A.select;
      " FROM ";
      list from_entry b.A.from;
      clause "WHERE" " AND " Fun.id where;
      clause "GROUP BY" ", " expr b.A.group_by;
      clause "HAVING" " AND " pred b.A.having;
      clause "ORDER BY" ", "
        (fun (e, d) -> expr e ^ match d with A.Asc -> " ASC" | A.Desc -> " DESC")
        b.A.order_by;
    ]

and query = function
  | A.Block b -> block b
  | A.Setop (op, l, r) ->
      Printf.sprintf "(%s) %s (%s)" (query l)
        (match op with
        | A.Union_all -> "UNION ALL"
        | A.Union -> "UNION"
        | A.Intersect -> "INTERSECT"
        | A.Minus -> "MINUS")
        (query r)
