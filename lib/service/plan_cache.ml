(** Bounded shared plan cache: structural query fingerprint -> compiled
    plan.

    Keys are the {!Sqlir.Fingerprint} [Generic]-mode hash of the
    canonical parameterized query (bind-peek values excluded — one
    cached plan serves every bind vector of the same query shape).
    Buckets hold the canonical query itself, so a probe is verified by
    full structural comparison; a bucket entry that fails it is a true
    hash collision and is only counted, never returned.

    Entries carry the stats-epoch snapshot of every base table the
    query reads. The cache itself never reads the live epochs:
    {!Service} compares the snapshot against the live epochs on each
    hit and drives recompilation ({e lazy invalidation} — a bumped
    epoch costs nothing until the next probe of an affected plan).

    Each entry owns its {e executable} ({!exe}), derived once by
    [store] from the catalog and degree of parallelism the cache was
    created with: every service over the cache runs that one plan
    object, and it is released with the entry.

    Replacement is least-recently-used under a logical clock, bounded
    by entry count; memory is accounted per entry with
    [Obj.reachable_words] at insertion time, executable included
    (annotations share plan subtrees, so the figure is an upper bound
    of the cache's own footprint); an executable reaches plan nodes and
    estimates only, never the catalog or heap data.

    {b Domain safety.} Entries live in one {!Concur.Lru} table, which
    owns sharding, locking, the capacity bound and the choice of
    victim; capacity bounds the whole cache at any shard count. The
    cache's own statistics (hits, misses, invalidations, collisions)
    are per-shard records mutated under the owning shard's lock and
    summed by [stats]. Racing hard parses of the same new query are
    deduped at insert: [store] returns the entry that won, and the
    loser's plan is dropped rather than double-counted. The default
    [shards = 1] keeps one exact LRU order. *)

open Sqlir
module A = Ast
module Mx = Obs.Metrics

(* the cache's footprint and churn, published to the process-wide
   registry: evictions are counted live (one atomic add on the
   eviction path); the footprint gauges are refreshed by
   [publish_metrics] at report time so the hot path never sums
   shards *)
let m_evictions = lazy (Mx.counter Mx.default "plan_cache_evictions_total")
let m_words = lazy (Mx.gauge Mx.default "plan_cache_memory_words")
let m_entries = lazy (Mx.gauge Mx.default "plan_cache_entries")

(** The executable form of a cached plan. *)
type exe = {
  x_plan : Exec.Plan.t;  (** the plan after the {!Planner.Parallel} post-pass *)
  x_est : Exec.Plan.t -> float option;
      (** {!Planner.Plan_est} rows per invocation of each node of
          [x_plan]: the engine's [card_of] hints, the Q-error baseline *)
}

(** Derive the executable of [plan] at degree [dop]. *)
let derive (cat : Catalog.t) ~(dop : Planner.Parallel.dop) (plan : Exec.Plan.t)
    : exe =
  let x_plan = Planner.Parallel.apply cat ~dop plan in
  { x_plan; x_est = Planner.Plan_est.pipeline_hints cat x_plan }

type entry = {
  e_key : A.query;
      (** canonical ([Generic]) parameterized query — the verified part
          of the cache key *)
  e_ann : Planner.Annotation.t;  (** optimized plan + cost annotation *)
  e_exe : exe;  (** derived from [e_ann] when the entry was stored *)
  e_binds : int;  (** size of the bind vector the plan references *)
  e_tables : string list;  (** base tables the query reads *)
  mutable e_epochs : (string * int) list;
      (** stats-epoch snapshot per table, refreshed on revalidation;
          mutated only under the owning shard's lock *)
  e_words : int;  (** [Obj.reachable_words] of the entry at insertion *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
      (** counted by the table; stays 0 in the per-shard records *)
  mutable invalidations : int;
      (** probes whose epoch snapshot was stale (recompiled; the old
          plan may still have been kept by the cost-delta guard) *)
  mutable collisions : int;
      (** bucket entries that failed the structural comparison *)
}

let stats_create () =
  { hits = 0; misses = 0; evictions = 0; invalidations = 0; collisions = 0 }

type t = {
  lru : (entry, stats) Concur.Lru.t;
  cat : Catalog.t;  (** read by [derive] only *)
  dop : Planner.Parallel.dop;
}

(** Entries derive their executables over [cat] at degree [dop].
    [shards] is rounded up to a power of two; the default [1] keeps the
    single-lock, single-LRU behavior of a private cache. A server
    passes a multiple of its worker count so probes spread over
    independently-locked shards. *)
let create ?(capacity = 128) ?shards ~dop (cat : Catalog.t) : t =
  {
    lru =
      Concur.Lru.create ?shards ~capacity ~stats:stats_create
        ~on_evict:(fun () ->
          if !Mx.enabled then Mx.inc (Lazy.force m_evictions))
        ();
    cat;
    dop;
  }

let dop (t : t) = t.dop

(** Point-in-time totals summed over the shards. The record is a fresh
    snapshot — re-call [stats] to observe later traffic. *)
let stats (t : t) : stats =
  let acc =
    Concur.Lru.fold_stats t.lru
      (fun acc s ->
        acc.hits <- acc.hits + s.hits;
        acc.misses <- acc.misses + s.misses;
        acc.invalidations <- acc.invalidations + s.invalidations;
        acc.collisions <- acc.collisions + s.collisions;
        acc)
      (stats_create ())
  in
  acc.evictions <- Concur.Lru.evictions t.lru;
  acc

let memory_words (t : t) = Concur.Lru.fold t.lru (fun n e -> n + e.e_words) 0
let length (t : t) = Concur.Lru.length t.lru

(** Probe for [key] under hash [h]. Counts a hit or a miss, makes a hit
    the most recently used, and counts (but skips) colliding bucket
    entries. *)
let find (t : t) ~(h : int) ~(key : A.query) : entry option =
  Concur.Lru.find t.lru h ~pick:(fun st bucket ->
      let rec scan = function
        | [] ->
            st.misses <- st.misses + 1;
            None
        | e :: rest ->
            if e.e_key = key then (
              st.hits <- st.hits + 1;
              Some e)
            else (
              st.collisions <- st.collisions + 1;
              scan rest)
      in
      scan bucket)

(** Insert a fresh entry, evicting down to capacity first. Returns the
    stored entry — which is the {e winning} entry if another domain
    raced the same key in first, so the cache never holds two entries
    for one canonical query. [drop] is removed first (see {!replace}).
    The executable is derived outside the shard lock; a racing loser's
    is dropped with its plan. *)
let store ?drop (t : t) ~(h : int) ~(key : A.query)
    ~(ann : Planner.Annotation.t) ~(binds : int) ~(tables : string list)
    ~(epochs : (string * int) list) : entry =
  let exe = derive t.cat ~dop:t.dop ann.Planner.Annotation.an_plan in
  Concur.Lru.find_or_add ?drop t.lru h
    ~pick:(fun _ -> List.find_opt (fun e -> e.e_key = key))
    ~make:(fun () ->
      let e =
        {
          e_key = key;
          e_ann = ann;
          e_exe = exe;
          e_binds = binds;
          e_tables = tables;
          e_epochs = epochs;
          e_words = 0;
        }
      in
      { e with e_words = Obj.reachable_words (Obj.repr e) })
    (fun _ e -> e)

(** Replace [old_e] (same hash bucket) with a recompiled entry and a
    fresh executable. Tolerates [old_e] having been evicted or replaced
    concurrently — the result is the entry now live for the key. *)
let replace t ~(h : int) ~(old_e : entry) ~(ann : Planner.Annotation.t)
    ~(epochs : (string * int) list) : entry =
  store ~drop:old_e t ~h ~key:old_e.e_key ~ann ~binds:old_e.e_binds
    ~tables:old_e.e_tables ~epochs

let count_invalidation (t : t) ~(h : int) =
  Concur.Lru.with_stats t.lru h (fun s -> s.invalidations <- s.invalidations + 1)

(** Refresh a revalidated entry's epoch snapshot under its shard lock,
    so a concurrent reader never observes a half-published snapshot
    list. The entry keeps its executable. *)
let refresh_epochs (t : t) ~(h : int) (e : entry)
    ~(epochs : (string * int) list) =
  Concur.Lru.with_stats t.lru h (fun _ -> e.e_epochs <- epochs)

(** Push the footprint gauges to the registry (report-time; the
    hot path never pays the shard sweep). *)
let publish_metrics t =
  if !Mx.enabled then begin
    Mx.set (Lazy.force m_words) (float_of_int (memory_words t));
    Mx.set (Lazy.force m_entries) (float_of_int (length t))
  end

(** Force the cached registry handles (see {!Service.prewarm}). *)
let prewarm () =
  ignore (Lazy.force m_evictions);
  ignore (Lazy.force m_words);
  ignore (Lazy.force m_entries)

let hit_rate t =
  let st = stats t in
  let total = st.hits + st.misses in
  if total = 0 then 0. else float_of_int st.hits /. float_of_int total
