(** Datasets, statement streams and reference answers.

    Every workload is a cyclic stream of SQL statements generated from
    the run's seed. The datasets are fixed (seed {!data_seed}) so that
    run-to-run spread comes from the statements, not from tables that
    change size with the seed. Each statement carries the digest of its
    reference answer, computed once at generation time and checked
    against every execution. *)

open Sqlir
module A = Ast
module V = Value
module Fp = Fingerprint
module QG = Workload.Query_gen
module SG = Workload.Schema_gen
module Rng = Workload.Rng
module D = Cbqt.Driver
module Db = Storage.Db

let data_seed = 2006
let sample_frac = 0.05

(** Statistics sampling used by every dataset build and re-analyze. *)
let analyze db =
  Storage.Stats_gather.analyze ~sample:(Some (data_seed lxor 0x5DEECE, sample_frac)) db

type dataset = Small | Scan

(** [Small]: two families at 4% of the generator's base row counts
    (fact tables of 60-240 rows), unpartitioned. [Scan]: the same
    schema at 2x ([f0_fact0] has about 10.6k rows, above the 8192-row
    threshold at which [dop = Auto] goes parallel), mid and fact tables
    8-way partitioned. At 10x (a 98 MB live heap against 20 MB) the
    memory-bound statements slowed by up to 1.5x whenever the shared
    host was busy, and the workload's figures spread 0.25-0.35 over 10
    seeds. *)
let build = function
  | Small -> SG.build ~families:2 ~sample_frac ~row_scale:0.04 ~seed:data_seed ()
  | Scan ->
      SG.build ~families:2 ~sample_frac ~row_scale:2. ~partitions:8
        ~seed:data_seed ()

type stmt = {
  sql : string;
  cls : string;  (** generator class or scan template name *)
  mutable ref_digest : int;
  mutable ref_rows : int;
}

(* ------------------------------------------------------------------ *)
(* Result digests                                                       *)
(* ------------------------------------------------------------------ *)

(* one hash per value: integral floats hash as the integer they equal
   and other floats by their 12-significant-digit text, so engines that
   sum in a different order or promote ints still digest equal *)
let value_hash = function
  | V.Null -> 1
  | V.Int n -> Hashtbl.hash n
  | V.Float f when Float.is_integer f && Float.abs f < 9007199254740992. ->
      Hashtbl.hash (int_of_float f)
  | V.Float f -> Hashtbl.hash (Printf.sprintf "%.12g" f)
  | V.Str s -> Hashtbl.hash s lxor 0x5A5A
  | V.Bool b -> if b then 3 else 5
  | V.Date d -> Hashtbl.hash d lxor 0x7E7E

let mix h v = ((h * 0x100000001b3) lxor value_hash v) land max_int

(** Order-insensitive digest of a row multiset: row hashes (order-
    sensitive within a row) summed into 61 bits, seeded with the row
    count. *)
let digest (rows : V.t array list) =
  List.fold_left
    (fun acc r -> (acc + Array.fold_left mix 7 r) land 0x1FFFFFFFFFFFFFFF)
    (List.length rows) rows

(* ------------------------------------------------------------------ *)
(* Rendering with a round-trip check                                    *)
(* ------------------------------------------------------------------ *)

exception Bench_bug of string

let bug fmt = Printf.ksprintf (fun s -> raise (Bench_bug s)) fmt

(** Render a generated query and check that the text parses back to
    the same query under the Generic fingerprint (block names aside).
    A statement that fails is a benchmark bug: raised, never dropped. *)
let render cat ~cls (q : A.query) : string =
  let sql =
    try Sqltext.query q
    with Sqltext.Unsupported what -> bug "%s: cannot render %s" cls what
  in
  (match Sqlparse.Parser.parse cat sql with
  | Error msg -> bug "%s: rendered text does not parse (%s): %s" cls msg sql
  | Ok parsed ->
      if
        not
          (Fp.equal ~mode:Fp.Generic parsed q
          && Fp.hash ~mode:Fp.Generic parsed = Fp.hash ~mode:Fp.Generic q)
      then bug "%s: text re-parses to another fingerprint: %s" cls sql);
  sql

(** The generator classes the SQL parser can express. [not-exists] is
    left out: the parser reads [NOT EXISTS (...)] as [NOT] applied to
    [EXISTS], a different query tree from the generator's
    [Not_exists]. *)
let expressible =
  [
    QG.C_spj;
    QG.C_exists;
    QG.C_in_multi;
    QG.C_not_in;
    QG.C_agg_subq;
    QG.C_gb_view;
    QG.C_distinct_view;
    QG.C_union_factor;
    QG.C_gbp;
    QG.C_or;
    QG.C_setop;
    QG.C_pullup;
  ]

(** The soft-parse shapes: the classes of the repo bench's cache mix. *)
let oltp_classes = [ QG.C_spj; QG.C_exists; QG.C_in_multi; QG.C_agg_subq; QG.C_gb_view ]

let shuffle rng (a : 'a array) =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] shapes with pairwise distinct parameterized fingerprints, drawn
   round-robin over [classes] so every class is represented *)
let distinct_shapes g (classes : QG.qclass list) n : (QG.qclass * A.query) list =
  let seen = Hashtbl.create (2 * n) in
  let classes = Array.of_list classes in
  let rec go acc k tries =
    if k = n then List.rev acc
    else if tries > 50 * n then bug "could not draw %d distinct shapes" n
    else
      let cls = classes.(tries mod Array.length classes) in
      g.QG.g_alias <- 0;
      let q = QG.generate g cls in
      let pq, _ = Fp.parameterize q in
      let h = Fp.hash ~mode:Fp.Generic pq in
      if Hashtbl.mem seen h then go acc k (tries + 1)
      else begin
        Hashtbl.add seen h ();
        go ((cls, q) :: acc) (k + 1) (tries + 1)
      end
  in
  go [] 0 0

let mk ~cls sql = { sql; cls; ref_digest = 0; ref_rows = 0 }

(** The shape populations are fixed (generated from these seeds); a
    run's seed draws the literal values and the statement order, as a
    TPC-H query generator draws substitution parameters for fixed
    templates. With a population of a few hundred statements, letting
    the seed redraw the shapes moves the medians by 20% between seeds. *)
let oltp_shape_seed = data_seed lxor 0x0C7A

let adhoc_shape_seed = data_seed lxor 0xAD0C

(* shift every integer and date literal by a seeded 0..7 *)
let vary rng (q : A.query) : A.query =
  let pq, lits = Fp.parameterize q in
  let shift = function
    | V.Int n -> V.Int (n + Rng.int rng 8)
    | V.Date d -> V.Date (d + Rng.int rng 8)
    | v -> v
  in
  Fp.instantiate pq (Array.of_list (List.map shift lits))

(** [shapes] soft-parse shapes, each in [variants] literal variants, in
    a seeded order. *)
let oltp_stream cat schema ~seed ~shapes ~variants : stmt array =
  let g = QG.create ~seed:oltp_shape_seed schema in
  let rng = Rng.create (seed lxor 0x0C7A) in
  let a =
    Array.of_list
      (List.concat_map
         (fun (cls, q) ->
           let cls = QG.class_name cls in
           List.init variants (fun _ -> mk ~cls (render cat ~cls (vary rng q))))
         (distinct_shapes g oltp_classes shapes))
  in
  shuffle rng a;
  a

(** [shapes] distinct shapes over every expressible class, one literal
    variant each: a stream much larger than the plan cache. *)
let adhoc_stream cat schema ~seed ~shapes : stmt array =
  let g = QG.create ~seed:adhoc_shape_seed schema in
  let rng = Rng.create (seed lxor 0xAD0C) in
  let a =
    Array.of_list
      (List.map
         (fun (cls, q) ->
           let cls = QG.class_name cls in
           mk ~cls (render cat ~cls (vary rng q)))
         (distinct_shapes g expressible shapes))
  in
  shuffle rng a;
  a

(** Execution-bound templates over the partitioned tables: a filtered
    scan, two group-bys (two-phase aggregation), a co-located fact-mid
    join, a point lookup on the hash partition key and a date range on
    the range partition key (both prune). The seeded literals move each
    template's selectivity by a few percent only (the measures are
    uniform on [0, 10000)), so that every template costs about the same
    at every seed. *)
let scan_templates : (string * (Rng.t -> string)) list =
  [
    ( "scan",
      fun r ->
        Printf.sprintf "SELECT f.id, f.m1 FROM f0_fact0 f WHERE f.m1 > %d"
          (Rng.range r 9500 9550) );
    ( "groupby-status",
      fun r ->
        Printf.sprintf
          "SELECT f.status_c, SUM(f.m1), COUNT(f.id) FROM f0_fact0 f WHERE \
           f.m2 < %d GROUP BY f.status_c"
          (Rng.range r 3000 3100) );
    ( "groupby-region",
      fun r ->
        Printf.sprintf
          "SELECT f.region, SUM(f.m2), COUNT(f.id) FROM f0_fact0 f WHERE \
           f.m1 > %d GROUP BY f.region"
          (Rng.range r 7000 7100) );
    ( "join-mid",
      fun r ->
        Printf.sprintf
          "SELECT f.id, m.status FROM f0_fact0 f, f0_mid m WHERE f.mid_id = \
           m.id AND f.m2 < %d"
          (Rng.range r 500 525) );
    ( "point-mid",
      fun r ->
        Printf.sprintf
          "SELECT f.id, f.m1 FROM f0_fact0 f WHERE f.mid_id = %d"
          (Rng.range r 1 400) );
    ( "range-created",
      fun r ->
        let d = Rng.range r 10000 11960 in
        Printf.sprintf
          "SELECT f.id, f.m2 FROM f1_fact1 f WHERE f.created BETWEEN DATE %d \
           AND DATE %d"
          d (d + 40) );
  ]

(** The order templates repeat in. The filtered scan, whose latencies
    form one narrow cluster, fills the 20-60% band of the sorted
    latencies (the point lookups, which are faster, fill 0-20%), so the
    median statement lies well inside that cluster rather than at the
    edge between two clusters, where it would jump from run to run. *)
let scan_cycle =
  [|
    "scan";
    "point-mid";
    "scan";
    "groupby-status";
    "scan";
    "join-mid";
    "point-mid";
    "scan";
    "range-created";
    "groupby-region";
  |]

(** [n] template instances with seeded literals, in {!scan_cycle}
    order. Every instance of one template must parameterize to one
    plan-cache key. *)
let scan_stream cat ~seed ~n : stmt array =
  let r = Rng.create (seed lxor 0x5CA7) in
  let keys = Hashtbl.create 8 in
  Array.init n (fun i ->
      let cls = scan_cycle.(i mod Array.length scan_cycle) in
      let sql = (List.assoc cls scan_templates) r in
      (match Sqlparse.Parser.parse cat sql with
      | Error msg -> bug "%s: template does not parse (%s): %s" cls msg sql
      | Ok q ->
          let h = Fp.hash ~mode:Fp.Generic (fst (Fp.parameterize q)) in
          (match Hashtbl.find_opt keys cls with
          | Some h' when h' <> h -> bug "%s: instances parameterize apart: %s" cls sql
          | _ -> Hashtbl.replace keys cls h));
      mk ~cls sql)

(* ------------------------------------------------------------------ *)
(* Reference answers                                                    *)
(* ------------------------------------------------------------------ *)

type reference = Refeval | Heuristic_row

(** The reference each class is checked against on the small dataset.
    [Refeval] is fully independent of the optimizer and executor, but it
    evaluates joins as nested cross products: on this dataset it takes
    25 ms to 4 s per statement (and up to 2 GB of heap) for multi-table
    joins, IN/NOT IN over joins, correlated aggregates and distinct
    views, against under 5 ms for the other classes. The slow classes
    use the CBQT-off serial row plan instead. *)
let small_reference cls =
  match cls with
  | "exists" | "gb-view" | "gbp" | "or" | "setop" | "pullup" | "union-factor" ->
      Refeval
  | _ -> Heuristic_row

(** Fill in every statement's reference digest. [Refeval] runs the
    reference evaluator on the parsed query; [Heuristic_row] compiles
    with the CBQT-off configuration and executes serially on the row
    engine. *)
let fill_references (db : Db.t) (how : string -> reference) (stmts : stmt array)
    =
  let cat = db.Db.cat in
  Array.iter
    (fun s ->
      let q = Sqlparse.Parser.parse_exn cat s.sql in
      match how s.cls with
      | Refeval ->
          let r = Refeval.eval db q in
          s.ref_digest <- digest (List.map Array.of_list r.Refeval.rows);
          s.ref_rows <- List.length r.Refeval.rows
      | Heuristic_row ->
          let res = D.optimize ~config:D.heuristic_config cat q in
          let _, rows, _ =
            Exec.Executor.execute ~engine:Exec.Executor.Row db
              res.D.res_annotation.Planner.Annotation.an_plan
          in
          s.ref_digest <- digest rows;
          s.ref_rows <- List.length rows)
    stmts
