(** Sharded, bounded, least-recently-used hash table: the one structure
    under the shared plan cache and the query store.

    Values live in hash buckets keyed by a caller-computed [int] hash.
    The table never compares keys itself: every lookup hands the
    caller the bucket's values and the caller picks the one whose key
    it verifies (a bucket value that fails the check is a true hash
    collision). A picked value becomes its shard's most recently used.

    {b Shards.} The hash picks one of a power-of-two number of shards
    (at most 256), each an independent hashtable with its own mutex,
    logical LRU clock and caller statistics (['s]). Every operation
    holds one shard lock at a time, never two, so concurrent probes of
    different shards do not contend. Caller statistics are mutated only
    under their shard's lock and summed on read, so totals are exact.

    {b One capacity over all shards.} An atomic count of claimed slots
    bounds the table as a whole. An insert first claims a free slot.
    When none is left it evicts its own shard's least-recently-used
    value and takes over that slot; when its own shard is empty it
    releases its lock, evicts from the next non-empty shard, and
    retries. Occupancy therefore never exceeds [capacity] at any shard
    count, and a working set no larger than [capacity] never evicts.
    Victims are chosen per shard, so with several shards the order
    approximates a global LRU; with one shard it is exact.

    {b Racing inserts} of one key are deduplicated: [find_or_add] picks
    from the bucket under the same lock it inserts under, so the first
    insert wins and later ones receive its value. *)

type 'v node = { v : 'v; mutable used : int  (** clock of last use *) }

type ('v, 's) shard = {
  mu : Mutex.t;
  tbl : (int, 'v node list) Hashtbl.t;
  stats : 's;
  mutable clock : int;
  mutable count : int;
  mutable evictions : int;
}

type ('v, 's) t = {
  shards : ('v, 's) shard array;
  mask : int;
  capacity : int;
  size : int Atomic.t;
      (** claimed slots: live values, plus one per insert that holds
          its shard lock and has not linked its value yet *)
  on_evict : unit -> unit;
}

(** [shards] is rounded up to a power of two (at most 256). [stats]
    builds each shard's caller statistics. [on_evict] runs under the
    victim shard's lock after every eviction. *)
let create ?(shards = 1) ?(on_evict = ignore) ~capacity ~(stats : unit -> 's)
    () : ('v, 's) t =
  let rec np2 k = if k >= shards || k >= 256 then k else np2 (k * 2) in
  let n = np2 1 in
  {
    shards =
      Array.init n (fun _ ->
          {
            mu = Mutex.create ();
            tbl = Hashtbl.create 16;
            stats = stats ();
            clock = 0;
            count = 0;
            evictions = 0;
          });
    mask = n - 1;
    capacity = max 1 capacity;
    size = Atomic.make 0;
    on_evict;
  }

(** Live values (plus inserts in flight, when called concurrently). *)
let length t = Atomic.get t.size

let bucket s h =
  match Hashtbl.find_opt s.tbl h with None -> [] | Some ns -> ns

let touch s n =
  s.clock <- s.clock + 1;
  n.used <- s.clock

(* caller holds [s.mu]: pick from bucket [h], touching the pick *)
let pick_locked s h pick =
  let ns = bucket s h in
  match pick s.stats (List.map (fun n -> n.v) ns) with
  | Some v as r ->
      List.iter (fun n -> if n.v == v then touch s n) ns;
      r
  | None -> None

(* caller holds [s.mu]; unlinks [v] from bucket [h] but keeps its slot
   claimed. [false] when [v] is no longer there. *)
let unlink s h v =
  match List.partition (fun n -> n.v != v) (bucket s h) with
  | _, [] -> false
  | rest, _ ->
      if rest = [] then Hashtbl.remove s.tbl h
      else Hashtbl.replace s.tbl h rest;
      s.count <- s.count - 1;
      true

(* caller holds [s.mu] and [s.count > 0]: unlink the shard's least
   recently used value, keeping its slot claimed *)
let evict_locked t s =
  let victim =
    Hashtbl.fold
      (fun h ns acc ->
        List.fold_left
          (fun acc n ->
            match acc with
            | Some (_, best) when best.used <= n.used -> acc
            | _ -> Some (h, n))
          acc ns)
      s.tbl None
  in
  Option.iter
    (fun (h, n) ->
      ignore (unlink s h n.v);
      s.evictions <- s.evictions + 1;
      t.on_evict ())
    victim

let rec claim_slot t =
  let n = Atomic.get t.size in
  n < t.capacity && (Atomic.compare_and_set t.size n (n + 1) || claim_slot t)

(* holding no lock: evict from the first non-empty shard after [from]
   and release the victim's slot *)
let evict_elsewhere t ~from =
  let rec go k =
    if k <= t.mask then begin
      let s = t.shards.((from + k) land t.mask) in
      let evicted =
        Mutex.protect s.mu (fun () ->
            s.count > 0
            && begin
                 evict_locked t s;
                 Atomic.decr t.size;
                 true
               end)
      in
      if not evicted then go (k + 1)
    end
  in
  go 1

(** Look [h] up: [pick] runs under the shard lock on the bucket's
    values and returns the one whose key it verifies. *)
let find t h ~(pick : 's -> 'v list -> 'v option) : 'v option =
  let s = t.shards.(h land t.mask) in
  Mutex.protect s.mu (fun () -> pick_locked s h pick)

(** [find_or_add t h ~pick ~make k] is [k] applied, under the shard
    lock, to the value [pick] finds in bucket [h], or else to a value
    from [make] inserted under the capacity bound. [drop], if still in
    bucket [h], is removed first without counting an eviction: the
    replace of a recompiled value. *)
let find_or_add ?drop t h ~(pick : 's -> 'v list -> 'v option)
    ~(make : unit -> 'v) (k : 's -> 'v -> 'r) : 'r =
  let i = h land t.mask in
  let s = t.shards.(i) in
  let made = lazy (make ()) in
  let rec attempt () =
    let r =
      Mutex.protect s.mu (fun () ->
          (match drop with
          | Some v -> if unlink s h v then Atomic.decr t.size
          | None -> ());
          match pick_locked s h pick with
          | Some v -> Some (k s.stats v)
          | None ->
              let v = Lazy.force made in
              if claim_slot t || (s.count > 0 && (evict_locked t s; true))
              then begin
                let n = { v; used = 0 } in
                touch s n;
                Hashtbl.replace s.tbl h (n :: bucket s h);
                s.count <- s.count + 1;
                Some (k s.stats v)
              end
              else None)
    in
    match r with
    | Some r -> r
    | None ->
        evict_elsewhere t ~from:i;
        attempt ()
  in
  attempt ()

(** [f] on the caller statistics of [h]'s shard, under its lock. *)
let with_stats t h (f : 's -> 'r) : 'r =
  let s = t.shards.(h land t.mask) in
  Mutex.protect s.mu (fun () -> f s.stats)

(** Fold [f] over every shard's caller statistics, one lock at a time. *)
let fold_stats t (f : 'a -> 's -> 'a) (init : 'a) : 'a =
  Array.fold_left
    (fun acc s -> Mutex.protect s.mu (fun () -> f acc s.stats))
    init t.shards

(** Fold [f] over every value, one shard lock at a time. *)
let fold t (f : 'a -> 'v -> 'a) (init : 'a) : 'a =
  Array.fold_left
    (fun acc s ->
      Mutex.protect s.mu (fun () ->
          Hashtbl.fold
            (fun _ ns acc -> List.fold_left (fun acc n -> f acc n.v) acc ns)
            s.tbl acc))
    init t.shards

(** Evictions over all shards. *)
let evictions t =
  Array.fold_left
    (fun acc s -> Mutex.protect s.mu (fun () -> acc + s.evictions))
    0 t.shards
