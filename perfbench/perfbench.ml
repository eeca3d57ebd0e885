(** The repository benchmark: SQL text in, rows out.

    {v perfbench --workload NAME --seed N --seconds S --trace 0|1 v}

    Every workload sends generated SQL text through [Service.exec] in a
    closed loop for [S] seconds, checks every result against its
    reference digest, and prints its metrics as one JSON object on the
    last line of standard output.

    With [--trace 0] it reports the end-to-end metrics of an untraced
    run. With [--trace 1] it reports per-layer metrics: the same
    statements run a fixed number of times through [Service.exec] and
    then through {!Pipeline}, the same pipeline rebuilt from each
    layer's public functions with a span around every call. The two
    must report identical layer counts, and a second pass through the
    rebuilt pipeline on a fresh service must repeat them. Spans are written to
    [.bench_out/WORKLOAD.spans.tsv]. The traced run of [oltp_text] also
    sends its statements through [Server.submit] to a two-worker pool.

    Work spread over several domains (the [Exchange] operator at a
    degree of parallelism above 1, the server's worker pool) is timed
    in the traced run only. On a two-core host shared with other
    machines its end-to-end figures spread 20-60% from run to run. *)

module C = Corpus
module Db = Storage.Db
module Pc = Service.Plan_cache
module Mx = Obs.Metrics
module Ex = Exec.Executor
module Fp = Sqlir.Fingerprint

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Samples and quantiles                                                *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then t.a <- Array.append t.a (Array.make t.n 0.);
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(** Nearest-rank quantile of a sorted array. *)
let quantile (s : float array) q =
  let n = Array.length s in
  if n = 0 then 0.
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median (xs : float list) =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  quantile s 0.5

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  dataset : C.dataset;
  stmts : Db.t -> Workload.Schema_gen.t -> seed:int -> C.stmt array;
  reference : string -> C.reference;
  warmup : C.stmt array -> int list;  (** statements run once per set-up *)
  analyze_every : int;
      (** traced run only: re-gather statistics every n requests; 0 = never *)
  server_phase : bool;  (** the traced run also measures the server pool *)
  fixed_n : int;  (** requests in each traced-run pass, per 10 s of run *)
}

let oltp_shapes = 96
let oltp_variants = 4
let adhoc_shapes = 480 (* > 3 x the 128-entry plan cache *)
let all_indices stmts = List.init (Array.length stmts) Fun.id

(** The statement request number [k] sends: the stream repeats. *)
let cyclic stmts k = k mod Array.length stmts

let workloads =
  [
    {
      name = "oltp_text";
      dataset = C.Small;
      stmts =
        (fun db schema ~seed ->
          C.oltp_stream db.Db.cat schema ~seed ~shapes:oltp_shapes ~variants:oltp_variants);
      reference = C.small_reference;
      warmup = all_indices;
      analyze_every = 8192;
      server_phase = true;
      fixed_n = 20_000;
    };
    {
      name = "adhoc_compile";
      dataset = C.Small;
      stmts = (fun db schema ~seed -> C.adhoc_stream db.Db.cat schema ~seed ~shapes:adhoc_shapes);
      reference = C.small_reference;
      warmup = all_indices;
      analyze_every = 0;
      server_phase = false;
      fixed_n = 5_500;
    };
    {
      name = "scan_partitioned";
      dataset = C.Scan;
      stmts = (fun db _ ~seed -> C.scan_stream db.Db.cat ~seed ~n:280);
      reference = (fun _ -> C.Heuristic_row);
      warmup = (fun _ -> List.init (2 * Array.length C.scan_cycle) Fun.id);
      analyze_every = 0;
      server_phase = false;
      fixed_n = 3_200;
    };
  ]

let server_workers = 2
let server_outstanding = 4

let server_config =
  { Server.default_config with Server.workers = server_workers; queue_depth = 64; deadline_s = 0. }

let maybe_analyze wl db k =
  if wl.analyze_every > 0 && k > 0 && k mod wl.analyze_every = 0 then C.analyze db

(* ------------------------------------------------------------------ *)
(* Outcome accounting                                                   *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable done_ : int;
  mutable wrong : int;
  mutable errors : int;  (** parse errors, exceptions, [Failed] *)
  mutable rejected : int;
  mutable timed_out : int;
  lat : Samples.t;  (** microseconds, completed statements *)
}

let tally_create () =
  {
    attempted = 0;
    done_ = 0;
    wrong = 0;
    errors = 0;
    rejected = 0;
    timed_out = 0;
    lat = Samples.create ();
  }

let failed t = t.wrong + t.errors + t.rejected + t.timed_out
let reported = ref 0

let complain fmt =
  Printf.ksprintf
    (fun s ->
      incr reported;
      if !reported <= 5 then prerr_endline s)
    fmt

(** Account one completed statement. *)
let finish t (st : C.stmt) ~lat_us (rows : Exec.Eval.row list) =
  t.done_ <- t.done_ + 1;
  Samples.add t.lat lat_us;
  if C.digest rows <> st.C.ref_digest then begin
    t.wrong <- t.wrong + 1;
    complain "wrong result (%d rows, reference %d): %s" (List.length rows) st.C.ref_rows
      st.C.sql
  end

let error t (st : C.stmt) msg =
  t.errors <- t.errors + 1;
  complain "failed: %s: %s" msg st.C.sql

(** One statement through [Service.exec]; returns its latency in
    microseconds and the service outcome. *)
let exec_direct t svc (st : C.stmt) =
  let a = now () in
  t.attempted <- t.attempted + 1;
  match Service.exec svc st.C.sql [] with
  | r ->
      let lat_us = (now () -. a) *. 1e6 in
      finish t st ~lat_us r.Service.r_rows;
      Some (lat_us, r.Service.r_outcome)
  | exception e ->
      error t st (Printexc.to_string e);
      None

(* ------------------------------------------------------------------ *)
(* Closed loops                                                         *)
(* ------------------------------------------------------------------ *)

(** One client: the next statement is sent when the previous one
    returned. Returns the elapsed seconds. *)
let direct_loop svc stmts ~seconds t =
  let t0 = now () in
  let t_end = t0 +. seconds in
  let k = ref 0 in
  while now () < t_end do
    ignore (exec_direct t svc stmts.(cyclic stmts !k));
    incr k
  done;
  now () -. t0

let add_latency tbl si lat_us =
  let a, c = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl si) in
  Hashtbl.replace tbl si (a +. lat_us, c + 1)

type server_stats = {
  mutable outstanding_sum : int;
  mutable queue_sum : int;
  mutable samples : int;
  mutable completed : int;
  mutable hits : int;  (** completed on a plan-cache hit *)
  per_stmt : (int, float * int) Hashtbl.t;  (** statement -> summed latency, count *)
}

let server_stats_create () =
  {
    outstanding_sum = 0;
    queue_sum = 0;
    samples = 0;
    completed = 0;
    hits = 0;
    per_stmt = Hashtbl.create 1024;
  }

(** One generating thread keeping [server_outstanding] requests in
    flight through [Server.submit]: after each refill it waits for the
    oldest request, then collects any other request that has finished.
    A request's latency runs from its submission until the generator
    sees its reply. Returns the elapsed seconds, to the last reply. *)
let server_loop wl db srv stmts ~seconds t (ss : server_stats) =
  let se = Server.session srv in
  let slots = Array.make server_outstanding None in
  let collect i o =
    match slots.(i) with
    | None -> ()
    | Some (_, si, t_sub) ->
        slots.(i) <- None;
        let st = stmts.(si) in
        let lat_us = (now () -. t_sub) *. 1e6 in
        (match o with
        | Server.Done r ->
            finish t st ~lat_us r.Service.r_rows;
            add_latency ss.per_stmt si lat_us;
            ss.completed <- ss.completed + 1;
            if r.Service.r_outcome = Service.Hit then ss.hits <- ss.hits + 1
        | Server.Failed msg -> error t st msg
        | Server.Rejected ->
            t.rejected <- t.rejected + 1;
            complain "rejected: %s" st.C.sql
        | Server.Timed_out ->
            t.timed_out <- t.timed_out + 1;
            complain "timed out: %s" st.C.sql)
  in
  let k = ref 0 in
  let t0 = now () in
  let t_end = t0 +. seconds in
  while now () < t_end do
    Array.iteri
      (fun i s ->
        if s = None then begin
          maybe_analyze wl db !k;
          let si = cyclic stmts !k in
          incr k;
          ss.queue_sum <- ss.queue_sum + Server.queue_length srv;
          t.attempted <- t.attempted + 1;
          let t_sub = now () in
          slots.(i) <- Some (Server.submit srv se (Server.Sql stmts.(si).C.sql), si, t_sub)
        end)
      slots;
    let out = ref 0 in
    Array.iter
      (function Some (h, _, _) when Server.poll h = None -> incr out | _ -> ())
      slots;
    ss.outstanding_sum <- ss.outstanding_sum + !out;
    ss.samples <- ss.samples + 1;
    let oldest = ref 0 and t_oldest = ref infinity in
    Array.iteri
      (fun i -> function
        | Some (_, _, ts) when ts < !t_oldest ->
            oldest := i;
            t_oldest := ts
        | _ -> ())
      slots;
    (match slots.(!oldest) with
    | Some (h, _, _) -> collect !oldest (Server.await h)
    | None -> ());
    Array.iteri
      (fun i s ->
        match s with
        | Some (h, _, _) -> (match Server.poll h with Some o -> collect i o | None -> ())
        | None -> ())
      slots
  done;
  Array.iteri
    (fun i s -> match s with Some (h, _, _) -> collect i (Server.await h) | None -> ())
    slots;
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

let warm_stmts wl stmts = List.map (fun i -> stmts.(i)) (wl.warmup stmts)

(** Create a service and run the warm-up pass. *)
let make_service wl db stmts =
  let svc = Service.create db in
  List.iter
    (fun st -> try ignore (Service.exec svc st.C.sql []) with _ -> ())
    (warm_stmts wl stmts);
  svc

(** Create a server pool and run the warm-up pass through it. *)
let make_pool wl db stmts =
  let srv = Server.create ~config:server_config db in
  ignore
    (Server.run_batch srv (Server.session srv)
       (List.map (fun st -> Server.Sql st.C.sql) (warm_stmts wl stmts)));
  srv

type setup = {
  db : Db.t;
  stmts : C.stmt array;
  svc : Service.t;
  build_s : float;  (** dataset generation, load, partitioning, stats *)
  analyze_s : float;  (** the extra statistics pass, when asked for *)
  warmup_s : float;  (** service creation plus warm-up pass *)
}

(** Build the dataset and the target. The statements and their
    reference answers are generated on the first set-up only and are
    not timed; later set-ups get them as [prev], so that no earlier
    dataset is still reachable when this one is built. [analyze] times
    one more statistics pass before the target is created. *)
let setup ?(analyze = false) wl ~seed (prev : C.stmt array option) : setup =
  Gc.compact ();
  let t0 = now () in
  let db, schema = C.build wl.dataset in
  let build_s = now () -. t0 in
  let stmts =
    match prev with
    | Some stmts -> stmts
    | None ->
        let stmts = wl.stmts db schema ~seed in
        C.fill_references db wl.reference stmts;
        stmts
  in
  let t1 = now () in
  if analyze then C.analyze db;
  let analyze_s = now () -. t1 in
  let t1 = now () in
  let svc = make_service wl db stmts in
  { db; stmts; svc; build_s; analyze_s; warmup_s = now () -. t1 }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  let ms =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let mb words = float_of_int words *. 8. /. 1048576.

(** Live major-heap megabytes after a full collection: the dataset and
    everything the program retains (plan cache, query store, memo
    tables), without the garbage whose amount depends on GC pacing.
    The untraced run reads it once, after the first set-up's warm-up
    pass: at the end of the run the memo tables would be at a point of
    their grow-and-reset cycle that depends on the run's length. *)
let live_mb () =
  Gc.full_major ();
  mb (Gc.stat ()).Gc.live_words

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                     *)
(* ------------------------------------------------------------------ *)

(* Set-ups per untraced run. The measured seconds are split evenly
   over them, each part timed on its own freshly built dataset and
   target, and the latencies of all parts are pooled. [setup_s] is the
   median set-up time. *)
let segments wl = match wl.dataset with C.Scan -> 12 | C.Small -> 10

(** Shut a pool down and check its accounting identity. *)
let pool_accounted srv =
  Server.shutdown srv;
  let r = Server.report srv in
  r.Server.rp_submitted
  = r.Server.rp_done + r.Server.rp_failed + r.Server.rp_rejected + r.Server.rp_timed_out

let run_untraced wl ~seed ~seconds =
  let k = segments wl in
  let t = tally_create () in
  let heap_mb = ref 0. in
  let rec go i prev setup_times elapsed =
    if i = k then (setup_times, elapsed)
    else begin
      let s = setup wl ~seed prev in
      if i = 0 then heap_mb := live_mb ();
      let done0 = t.done_ in
      let e = direct_loop s.svc s.stmts ~seconds:(seconds /. float_of_int k) t in
      Printf.printf "segment %d: set-up %.3f s, %d statements, %.1f/s\n" i
        (s.build_s +. s.warmup_s) (t.done_ - done0)
        (float_of_int (t.done_ - done0) /. e);
      go (i + 1) (Some s.stmts) ((s.build_s +. s.warmup_s) :: setup_times) (elapsed +. e)
    end
  in
  let setup_times, elapsed = go 0 None [] 0. in
  let lat = Samples.sorted t.lat in
  let n = Array.length lat in
  let p50 = quantile lat 0.5 and p90 = quantile lat 0.9 and p99 = quantile lat 0.99 in
  Printf.printf
    "%s seed %d: %d statements in %.2f s (%d completed; %d beyond p90); p99 %.1f us (%d beyond)\n"
    wl.name seed t.attempted elapsed n
    (n - int_of_float (Float.ceil (0.9 *. float_of_int n)))
    p99
    (n - int_of_float (Float.ceil (0.99 *. float_of_int n)));
  let failed = failed t in
  print_result
    ~correct:(failed = 0)
    ~attempted:t.attempted ~failed
    [
      ("stmt_p50_us", p50, "us");
      ("stmt_p90_us", p90, "us");
      ("stmt_p99_us", p99, "us");
      ("stmts_per_s", float_of_int t.done_ /. elapsed, "1/s");
      ("ok_ratio", ratio (float_of_int (t.attempted - failed)) (float_of_int t.attempted), "ratio");
      ("setup_s", median setup_times, "s");
      ("heap_live_mb", !heap_mb, "MB");
    ]

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                        *)
(* ------------------------------------------------------------------ *)

(** Layer counts of a pass through [Service.exec], read from the
    service's own counters, its plan cache and the metrics registry. *)
type svc_counts = {
  k_soft : int;
  k_hard : int;
  k_evictions : int;
  k_invalidations : int;
  k_states : int;
  k_meter : int array;
}

let svc_counts svc =
  let r = Service.report svc in
  {
    k_soft = r.Service.sv_soft_parses;
    k_hard = r.Service.sv_hard_parses;
    k_evictions = r.Service.sv_evictions;
    k_invalidations = r.Service.sv_invalidations;
    k_states = Mx.counter_value (Mx.counter Mx.default "cbqt_states_total");
    k_meter = Array.copy svc.Service.meter_tot;
  }

let counts_delta a b =
  {
    k_soft = b.k_soft - a.k_soft;
    k_hard = b.k_hard - a.k_hard;
    k_evictions = b.k_evictions - a.k_evictions;
    k_invalidations = b.k_invalidations - a.k_invalidations;
    k_states = b.k_states - a.k_states;
    k_meter = Array.mapi (fun i v -> v - a.k_meter.(i)) b.k_meter;
  }

let fields_of_counts k =
  [
    ("soft parses", k.k_soft);
    ("hard parses", k.k_hard);
    ("evictions", k.k_evictions);
    ("invalidations", k.k_invalidations);
    ("cbqt states", k.k_states);
  ]
  @ List.mapi (fun i f -> ("meter " ^ f, k.k_meter.(i))) Exec.Meter.field_names

(** Layer counts of a pass through the rebuilt pipeline [pl]; [pc0]
    is its plan cache's statistics before the pass. *)
let pipeline_counts (pl : Pipeline.t) pc0 =
  let c = pl.Pipeline.c in
  let pst = Pc.stats (Service.cache pl.Pipeline.svc) in
  {
    k_soft = c.Pipeline.soft;
    k_hard = c.Pipeline.hard;
    k_evictions = pst.Pc.evictions - pc0.Pc.evictions;
    k_invalidations = pst.Pc.invalidations - pc0.Pc.invalidations;
    k_states = c.Pipeline.states;
    k_meter = c.Pipeline.meter;
  }

(** Compare two sets of layer counts field by field; [what] names the
    comparison in the complaint about a difference. *)
let same_counts what a b =
  List.for_all2
    (fun (name, u) (_, v) ->
      if u <> v then complain "%s: %s: %d vs %d" what name u v;
      u = v)
    (fields_of_counts a) (fields_of_counts b)

let out_dir = ".bench_out"

let budget_loop ~seconds ~max_rounds f =
  let t_end = now () +. seconds in
  let rec go k acc = if k >= max_rounds || (k >= 3 && now () > t_end) then acc else go (k + 1) (f () :: acc) in
  go 0 []

let timed f =
  let t0 = now () in
  ignore (f ());
  now () -. t0

(* requests per interleaved chunk of the traced run; divides
   [analyze_every] so statistics refreshes land on chunk starts *)
let chunk = 256

let run_traced wl ~seed ~seconds =
  let s = setup ~analyze:true wl ~seed None in
  let db = s.db and stmts = s.stmts in
  let t = tally_create () in
  let n = max 1 (int_of_float (float_of_int wl.fixed_n *. seconds /. 10.)) in
  let svc_u = s.svc in
  let svc_t = make_service wl db stmts in
  (* n requests through Service.exec (pass U) and the same n through
     the rebuilt, traced pipeline (pass T), both from the same warm
     state, alternating in chunks so both see the same conditions; a
     statistics refresh at a chunk start reaches both passes alike *)
  let per_stmt_direct = Hashtbl.create 1024 in
  let sp = Spans.create () in
  let pl = Pipeline.create svc_t sp in
  let states () = Mx.counter_value (Mx.counter Mx.default "cbqt_states_total") in
  let k0 = svc_counts svc_u in
  let pc0 = Pc.stats (Service.cache svc_t) in
  let wall_u = ref 0. and wall_t = ref 0. and states_u = ref 0 in
  let minor_u = ref 0. and major_u = ref 0 in
  let traced_chunk pl lo hi =
    for j = lo to hi - 1 do
      let st = stmts.(cyclic stmts j) in
      Spans.request pl.Pipeline.sp j;
      t.attempted <- t.attempted + 1;
      let a = now () in
      match Pipeline.exec pl st.C.sql with
      | rows -> finish t st ~lat_us:((now () -. a) *. 1e6) rows
      | exception e -> error t st (Printexc.to_string e)
    done
  in
  let k = ref 0 in
  while !k < n do
    let lo = !k and hi = min n (!k + chunk) in
    maybe_analyze wl db lo;
    let st0 = states () in
    let g0 = Gc.quick_stat () in
    wall_u :=
      !wall_u
      +. timed (fun () ->
             for j = lo to hi - 1 do
               let si = cyclic stmts j in
               match exec_direct t svc_u stmts.(si) with
               | Some (lat, _) -> add_latency per_stmt_direct si lat
               | None -> ()
             done);
    let g1 = Gc.quick_stat () in
    minor_u := !minor_u +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major_u := !major_u + (g1.Gc.major_collections - g0.Gc.major_collections);
    states_u := !states_u + (states () - st0);
    wall_t := !wall_t +. timed (fun () -> traced_chunk pl lo hi);
    k := hi
  done;
  let ku = { (counts_delta k0 (svc_counts svc_u)) with k_states = !states_u } in
  let c = pl.Pipeline.c in
  let kt = pipeline_counts pl pc0 in
  let counts_match = same_counts "service vs rebuilt pipeline" ku kt in
  (* the counts must repeat: pass T once more, on a fresh service warmed
     the same way, with statistics refreshed at the same chunk starts *)
  let repeat =
    let pl_r = Pipeline.create (make_service wl db stmts) (Spans.create ()) in
    let pc0_r = Pc.stats (Service.cache pl_r.Pipeline.svc) in
    let k = ref 0 in
    while !k < n do
      let lo = !k and hi = min n (!k + chunk) in
      maybe_analyze wl db lo;
      traced_chunk pl_r lo hi;
      k := hi
    done;
    same_counts "traced pass vs its repeat" kt (pipeline_counts pl_r pc0_r)
  in
  (* obs.registry_overhead: the same short run of statements with the
     registry off and on, in alternating order; the median of the
     on/off ratios *)
  let span = max 1 (n / 200) in
  let pass k enabled =
    Mx.enabled := enabled;
    timed (fun () ->
        for j = k to k + span - 1 do
          ignore (exec_direct t svc_u stmts.(cyclic stmts j))
        done)
  in
  let round = ref 0 in
  let reg =
    budget_loop ~seconds:(0.1 *. seconds) ~max_rounds:400 (fun () ->
        let k = !round * span in
        let on_first = !round mod 2 = 1 in
        incr round;
        let first = pass k on_first in
        let second = pass k (not on_first) in
        if on_first then ratio first second else ratio second first)
  in
  Mx.enabled := true;
  (* exec.dop_speedup: serial plan vs Parallel.apply'd plan (dop Auto)
     of the same statements, executed alternately; exec.dop is the
     largest exchange worker count the parallel plans used *)
  let cat = db.Db.cat in
  let distinct =
    List.sort_uniq compare (List.init (min n 64) (cyclic stmts)) |> List.filteri (fun i _ -> i < 10)
  in
  let plans =
    List.map
      (fun si ->
        let q = Sqlparse.Parser.parse_exn cat stmts.(si).C.sql in
        let peeked, extracted = Fp.parameterize (Fp.peek_binds q [||]) in
        let rs = Service.resolve svc_u peeked in
        let plan = rs.Service.rs_ann.Planner.Annotation.an_plan in
        let par = Planner.Parallel.apply cat ~dop:Planner.Parallel.Auto plan in
        (Array.of_list extracted, plan, par))
      distinct
  in
  let par_es = Ex.engine_stats_create () in
  let run_plan ?engine_stats binds p =
    timed (fun () ->
        Ex.execute ~binds ~card_of:(Planner.Plan_est.pipeline_hints cat p) ?engine_stats db p)
  in
  let dop =
    budget_loop ~seconds:(0.1 *. seconds) ~max_rounds:50 (fun () ->
        let ser = List.fold_left (fun acc (b, p, _) -> acc +. run_plan b p) 0. plans in
        let par =
          List.fold_left (fun acc (b, _, p) -> acc +. run_plan ~engine_stats:par_es b p) 0. plans
        in
        ratio ser par)
  in
  (* server phase: queue wait and handoff, measured from outside *)
  let pool_ok = ref true in
  let server_phase =
    if not wl.server_phase then None
    else begin
      let srv = make_pool wl db stmts in
      let ss = server_stats_create () in
      let ts = tally_create () in
      ignore (server_loop wl db srv stmts ~seconds:(0.25 *. seconds) ts ss);
      pool_ok :=
        pool_accounted srv && ts.attempted = ts.done_ + ts.errors + ts.rejected + ts.timed_out;
      if not !pool_ok then complain "server accounting identity violated";
      Printf.printf
        "%s server phase: mean outstanding %.3f of %d, attempted %d = done %d + failed %d + rejected %d + timed out %d\n"
        wl.name
        (ratio (float_of_int ss.outstanding_sum) (float_of_int ss.samples))
        server_outstanding ts.attempted ts.done_ ts.errors ts.rejected ts.timed_out;
      t.attempted <- t.attempted + ts.attempted;
      t.done_ <- t.done_ + ts.done_;
      t.wrong <- t.wrong + ts.wrong;
      t.errors <- t.errors + ts.errors;
      t.rejected <- t.rejected + ts.rejected;
      t.timed_out <- t.timed_out + ts.timed_out;
      Some (ss, Server.report srv)
    end
  in
  let srv f = match server_phase with Some (ss, r) -> f ss r | None -> 0. in
  let handoff_us ss _ =
    let hand = ref 0. and hand_n = ref 0 in
    Hashtbl.iter
      (fun si (sum, cnt) ->
        match Hashtbl.find_opt per_stmt_direct si with
        | Some (d, dn) ->
            hand := !hand +. sum -. (float_of_int cnt *. d /. float_of_int dn);
            hand_n := !hand_n + cnt
        | None -> ())
      ss.per_stmt;
    ratio !hand (float_of_int !hand_n)
  in
  let per_sample v ss = ratio (float_of_int v) (float_of_int ss.samples) in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Spans.write sp (Filename.concat out_dir (wl.name ^ ".spans.tsv"));
  let layers = Spans.layers sp in
  let layer name = List.find (fun l -> l.Spans.l_name = name) layers in
  let per_call name =
    let l = layer name in
    ratio (l.Spans.l_self_s *. 1e6) (float_of_int l.Spans.l_count)
  in
  let per_stmt name = ratio ((layer name).Spans.l_self_s *. 1e6) (float_of_int n) in
  let root = layer "stmt" in
  let coverage = 1. -. ratio root.Spans.l_self_s root.Spans.l_total_s in
  let fn = float_of_int n in
  let rows = float_of_int (max 1 c.Pipeline.rows) in
  let es = c.Pipeline.es in
  let hard = float_of_int c.Pipeline.hard in
  let meter = List.combine Exec.Meter.field_names (Array.to_list c.Pipeline.meter) in
  let meter_field f = float_of_int (List.assoc f meter) in
  let metrics =
    [
      ("sqlparse.parse_us", per_call "sqlparse.parse", "us");
      ("sqlparse.alloc_words", c.Pipeline.parse_words /. fn, "words");
      ("sqlir.parameterize_us", per_call "sqlir.parameterize", "us");
      ("plan_cache.probe_us", per_call "plan_cache.probe", "us");
      ("plan_cache.store_us", per_call "plan_cache.store", "us");
      ("plan_cache.hit_ratio", ratio (float_of_int c.Pipeline.soft) fn, "ratio");
      ("plan_cache.evictions", float_of_int kt.k_evictions, "count");
      ("plan_cache.invalidations", float_of_int kt.k_invalidations, "count");
      ("cbqt.optimize_us", per_call "cbqt.optimize", "us");
      ("cbqt.states", ratio (float_of_int c.Pipeline.states) hard, "count");
      ("cbqt.cutoff_ratio", ratio (float_of_int c.Pipeline.cutoff) (float_of_int c.Pipeline.states), "ratio");
      ("cbqt.blocks_optimized", ratio (float_of_int c.Pipeline.blocks_optimized) hard, "count");
      ( "cbqt.reuse_ratio",
        ratio (float_of_int c.Pipeline.annot_reuse)
          (float_of_int (c.Pipeline.annot_reuse + c.Pipeline.blocks_started)),
        "ratio" );
      ("planner.post_pass_us", per_stmt "planner.post_pass", "us");
      ("exec.prepare_us", per_stmt "exec.prepare", "us");
      ("exec.pull_us", per_stmt "exec.pull", "us");
      ("obs.observe_us", per_stmt "obs.observe", "us");
    ]
    @ List.map (fun (f, v) -> ("exec.meter." ^ f, float_of_int v /. fn, "count")) meter
    @ [
        ("exec.rows_scanned_per_row_out", meter_field "rows_scanned" /. rows, "ratio");
        ( "exec.vector_pipeline_ratio",
          ratio (float_of_int es.Ex.es_vector) (float_of_int (es.Ex.es_vector + es.Ex.es_row)),
          "ratio" );
        ( "exec.parts_pruned_ratio",
          ratio (float_of_int es.Ex.es_parts_pruned)
            (float_of_int (es.Ex.es_parts_pruned + es.Ex.es_parts_scanned)),
          "ratio" );
        ("exec.dop", float_of_int par_es.Ex.es_dop, "count");
        ("exec.alloc_words_per_row", c.Pipeline.exec_words /. rows, "words");
        ("exec.dop_speedup", median dop, "ratio");
        ("server.handoff_us", srv handoff_us, "us");
        ("server.queue_depth", srv (fun ss _ -> per_sample ss.queue_sum ss), "count");
        ("server.rejected", srv (fun _ r -> float_of_int r.Server.rp_rejected), "count");
        ("server.timed_out", srv (fun _ r -> float_of_int r.Server.rp_timed_out), "count");
        ("server.failed", srv (fun _ r -> float_of_int r.Server.rp_failed), "count");
        ("server.outstanding_mean", srv (fun ss _ -> per_sample ss.outstanding_sum ss), "count");
        ( "server.oltp_hit_ratio",
          srv (fun ss _ -> ratio (float_of_int ss.hits) (float_of_int ss.completed)),
          "ratio" );
        ("obs.registry_overhead", median reg, "ratio");
        ("obs.store_entries", float_of_int (Obs.Query_store.length (Service.query_store svc_u)), "count");
        ("storage.build_s", s.build_s, "s");
        ("storage.analyze_s", s.analyze_s, "s");
        ("setup.warmup_s", s.warmup_s, "s");
        ("gc.minor_words_per_stmt", !minor_u /. fn, "words");
        ("gc.major_collections", float_of_int !major_u, "count");
        ("gc.top_heap_mb", mb (Gc.quick_stat ()).Gc.top_heap_words, "MB");
        ("trace.coverage", coverage, "ratio");
        ("trace.overhead", ratio !wall_t !wall_u, "ratio");
        ("trace.counts_match", (if counts_match then 1. else 0.), "bool");
        ("trace.counts_repeat", (if repeat then 1. else 0.), "bool");
      ]
  in
  Printf.printf "%s seed %d traced: %d requests per pass, %d spans, hard parses %d, soft %d\n"
    wl.name seed n sp.Spans.n c.Pipeline.hard c.Pipeline.soft;
  let failed = failed t in
  print_result ~correct:(failed = 0 && counts_match && repeat && !pool_ok) ~attempted:t.attempted ~failed metrics

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the statement streams");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline
        ("unknown workload; one of: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  | Some wl -> (
      try
        if !trace = 0 then run_untraced wl ~seed:!seed ~seconds:!seconds
        else run_traced wl ~seed:!seed ~seconds:!seconds
      with C.Bench_bug msg ->
        prerr_endline ("benchmark bug: " ^ msg);
        exit 3)
