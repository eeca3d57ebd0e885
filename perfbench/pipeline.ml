(** [Service.exec] rebuilt from each layer's public functions, with a
    span around every call.

    The steps, their order and their bookkeeping follow
    [Service.exec_ir] and [Service.resolve]: the rebuilt path works on
    a real [Service.t] (its plan cache, memo tables, counters and query
    store), so after the same statements both paths leave the same
    state behind and report the same counts. The traced run checks
    exactly that. *)

open Sqlir
module Fp = Fingerprint
module D = Cbqt.Driver
module Pc = Service.Plan_cache
module Mx = Obs.Metrics
module Qs = Obs.Query_store
module Db = Storage.Db
module Ex = Exec.Executor

(** Layer counts accumulated over every statement run through {!exec}. *)
type counts = {
  mutable soft : int;
  mutable hard : int;
  mutable states : int;
  mutable cutoff : int;
  mutable blocks_started : int;
  mutable blocks_optimized : int;
  mutable annot_reuse : int;
  meter : int array;  (** [Exec.Meter.field_names] order *)
  mutable rows : int;
  mutable parse_words : float;
  mutable exec_words : float;
  es : Ex.engine_stats;
}

let counts_create () =
  {
    soft = 0;
    hard = 0;
    states = 0;
    cutoff = 0;
    blocks_started = 0;
    blocks_optimized = 0;
    annot_reuse = 0;
    meter = Array.make (List.length Exec.Meter.field_names) 0;
    rows = 0;
    parse_words = 0.;
    exec_words = 0.;
    es = Ex.engine_stats_create ();
  }

type t = {
  svc : Service.t;
  sp : Spans.t;
  c : counts;
  n_stmt : int;
  n_parse : int;
  n_param : int;
  n_probe : int;
  n_opt : int;
  n_store : int;
  n_post : int;
  n_prepare : int;
  n_pull : int;
  n_obs : int;
}

(* span names: one per layer call; [stmt] is the request root *)
let create svc sp =
  let id = Spans.name_id sp in
  {
    svc;
    sp;
    c = counts_create ();
    n_stmt = id "stmt";
    n_parse = id "sqlparse.parse";
    n_param = id "sqlir.parameterize";
    n_probe = id "plan_cache.probe";
    n_opt = id "cbqt.optimize";
    n_store = id "plan_cache.store";
    n_post = id "planner.post_pass";
    n_prepare = id "exec.prepare";
    n_pull = id "exec.pull";
    n_obs = id "obs.observe";
  }

let add_engine_stats (tot : Ex.engine_stats) (es : Ex.engine_stats) =
  tot.Ex.es_vector <- tot.Ex.es_vector + es.Ex.es_vector;
  tot.Ex.es_row <- tot.Ex.es_row + es.Ex.es_row;
  tot.Ex.es_parts_scanned <- tot.Ex.es_parts_scanned + es.Ex.es_parts_scanned;
  tot.Ex.es_parts_pruned <- tot.Ex.es_parts_pruned + es.Ex.es_parts_pruned;
  if es.Ex.es_dop > tot.Ex.es_dop then tot.Ex.es_dop <- es.Ex.es_dop

let add_report c (rp : D.report) =
  c.states <- c.states + rp.D.rp_states_total;
  c.cutoff <- c.cutoff + rp.D.rp_states_cutoff;
  c.blocks_started <- c.blocks_started + rp.D.rp_blocks_started;
  c.blocks_optimized <- c.blocks_optimized + rp.D.rp_blocks_optimized;
  c.annot_reuse <- c.annot_reuse + rp.D.rp_cache_hits

(** Run one statement of SQL text (no caller binds) and return its
    rows. *)
let exec t (sql : string) : Exec.Eval.row list =
  let svc = t.svc and sp = t.sp and c = t.c in
  let db = svc.Service.db in
  let cfg = svc.Service.cfg in
  let cache = Service.cache svc in
  Spans.span sp t.n_stmt (fun () ->
      let q =
        Spans.span sp t.n_parse (fun () ->
            let w0 = Gc.minor_words () in
            let q = Sqlparse.Parser.parse_exn db.Db.cat sql in
            c.parse_words <- c.parse_words +. (Gc.minor_words () -. w0);
            q)
      in
      let user = [||] in
      let peeked, extracted, key, h =
        Spans.span sp t.n_param (fun () ->
            if Fp.binds_count q <> 0 then invalid_arg "Pipeline.exec: unbound marker";
            let peeked = Fp.peek_binds q user in
            let peeked, extracted = Fp.parameterize peeked in
            let key = Fp.canonical ~mode:Fp.Generic peeked in
            (peeked, extracted, key, Fp.hash ~mode:Fp.Generic key))
      in
      let p0 = Unix.gettimeofday () in
      let found =
        Spans.span sp t.n_probe (fun () ->
            match Pc.find cache ~h ~key with
            | Some e when Service.epochs_current svc e.Pc.e_epochs -> `Hit e
            | Some e ->
                Pc.count_invalidation cache ~h;
                `Stale e
            | None -> `Miss)
      in
      let optimize () =
        let res = Spans.span sp t.n_opt (fun () -> Service.compile svc peeked) in
        add_report c res.D.res_report;
        res
      in
      let outcome, ann, report =
        match found with
        | `Hit e -> (Service.Hit, e.Pc.e_ann, None)
        | `Stale e ->
            let res = optimize () in
            let ann = res.D.res_annotation in
            let old_cost = e.Pc.e_ann.Planner.Annotation.an_cost in
            let new_cost = ann.Planner.Annotation.an_cost in
            Spans.span sp t.n_store (fun () ->
                let epochs = Service.epochs_of svc e.Pc.e_tables in
                if
                  Float.abs (new_cost -. old_cost)
                  <= cfg.Service.cost_delta *. Float.abs old_cost
                then (
                  Pc.refresh_epochs cache ~h e ~epochs;
                  (Service.Revalidated, e.Pc.e_ann, Some res.D.res_report))
                else
                  let e' = Pc.replace cache ~h ~old_e:e ~ann ~epochs in
                  (Service.Invalidated, e'.Pc.e_ann, Some res.D.res_report))
        | `Miss ->
            let res = optimize () in
            let ann = res.D.res_annotation in
            Spans.span sp t.n_store (fun () ->
                let tables =
                  Walk.Sset.elements (Walk.all_tables_query Walk.Sset.empty peeked)
                in
                let e =
                  Pc.store cache ~h ~key ~ann ~binds:(Fp.binds_count peeked) ~tables
                    ~epochs:(Service.epochs_of svc tables)
                in
                (Service.Miss, e.Pc.e_ann, Some res.D.res_report))
      in
      let parse_s = Unix.gettimeofday () -. p0 in
      (match outcome with
      | Service.Hit ->
          c.soft <- c.soft + 1;
          svc.Service.soft_parses <- svc.Service.soft_parses + 1;
          svc.Service.soft_s <- svc.Service.soft_s +. parse_s
      | _ ->
          c.hard <- c.hard + 1;
          svc.Service.hard_parses <- svc.Service.hard_parses + 1;
          svc.Service.hard_s <- svc.Service.hard_s +. parse_s);
      let plan, card_of =
        Spans.span sp t.n_post (fun () ->
            let plan = Service.par_plan_of svc ann.Planner.Annotation.an_plan in
            (plan, Service.hints_of svc plan))
      in
      let binds = Array.append user (Array.of_list extracted) in
      let es = Ex.engine_stats_create () in
      let meter = Exec.Meter.create () in
      let e0 = Unix.gettimeofday () in
      let w0 = Gc.minor_words () in
      let cursor =
        Spans.span sp t.n_prepare (fun () ->
            Ex.prepare
              {
                Exec.Cursor.db;
                meter;
                analyze = None;
                binds;
                size = cfg.Service.batch_size;
                engine = cfg.Service.engine;
                card_of;
                vector_threshold = Ex.default_vector_threshold;
                estats = Some es;
                restrict = None;
              }
              [] plan)
      in
      let rows =
        Spans.span sp t.n_pull (fun () ->
            let acc = ref [] in
            Exec.Cursor.iter_rows cursor [] (fun r -> acc := r :: !acc);
            List.rev !acc)
      in
      c.exec_words <- c.exec_words +. (Gc.minor_words () -. w0);
      let exec_s = Unix.gettimeofday () -. e0 in
      Spans.span sp t.n_obs (fun () ->
          add_engine_stats svc.Service.estats es;
          let nrows = List.length rows in
          if Service.metrics_on svc then begin
            Mx.observe
              (Lazy.force
                 (match outcome with
                 | Service.Hit -> Service.m_soft_parse
                 | _ -> Service.m_hard_parse))
              parse_s;
            Mx.inc
              (Lazy.force
                 (match outcome with
                 | Service.Hit -> Service.m_oc_hit
                 | Service.Miss -> Service.m_oc_miss
                 | Service.Invalidated -> Service.m_oc_inval
                 | Service.Revalidated -> Service.m_oc_reval));
            Mx.observe (Lazy.force Service.m_execute) exec_s;
            Mx.add (Lazy.force Service.m_rows) nrows;
            let vals = Exec.Meter.values meter in
            let tot = svc.Service.meter_tot in
            Array.iteri (fun i v -> tot.(i) <- tot.(i) + v) vals;
            let txs =
              match report with
              | None -> []
              | Some rp ->
                  List.map
                    (fun s -> (s.D.sr_name, List.exists Fun.id s.D.sr_chosen))
                    rp.D.rp_steps
            in
            ignore
              (Qs.observe (Service.query_store svc) ~txs ~qerrs:[] ~fp:h
                 ~dop:es.Ex.es_dop ~parts_scanned:es.Ex.es_parts_scanned
                 ~parts_pruned:es.Ex.es_parts_pruned
                 ~text:(fun () -> Service.squeeze_ws (Pp.query_to_string key))
                 ~outcome:(Service.outcome_name outcome) ~rows:nrows ~exec_s ~parse_s
                 ~meter_names:(Lazy.force Service.meter_names) ~meter:vals
                 ~vec_pipelines:es.Ex.es_vector ~row_pipelines:es.Ex.es_row)
          end);
      Array.iteri (fun i v -> c.meter.(i) <- c.meter.(i) + v) (Exec.Meter.values meter);
      c.rows <- c.rows + List.length rows;
      add_engine_stats c.es es;
      rows)
