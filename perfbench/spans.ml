(** In-memory span recorder for the traced run.

    A span is a named interval with a parent span and a request id.
    Spans open and close in strict nesting order on one thread, so a
    span's index is allocated when it opens (parents precede their
    children) and the open stack gives each new span its parent. The
    spans stay in flat arrays until the run ends; {!write} dumps them
    as a tab-separated file. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;  (** name id -> name *)
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;  (** [-1] for a root span *)
  mutable req : int array;
  mutable n : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable cur_req : int;
}

let create () =
  let cap = 1024 in
  {
    names = Hashtbl.create 32;
    name_of = [||];
    name = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    parent = Array.make cap 0;
    req = Array.make cap 0;
    n = 0;
    stack = [];
    cur_req = 0;
  }

(** Intern a span name once, outside the measured path. *)
let name_id t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.add t.names s i;
      t.name_of <- Array.append t.name_of [| s |];
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a z = Array.append a (Array.make (cap - Array.length a) z) in
  t.name <- ext t.name 0;
  t.start <- ext t.start 0.;
  t.stop <- ext t.stop 0.;
  t.parent <- ext t.parent 0;
  t.req <- ext t.req 0

let enter t id =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- id;
  t.parent.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.req.(i) <- t.cur_req;
  t.stack <- i :: t.stack;
  t.start.(i) <- Unix.gettimeofday ();
  i

let leave t i =
  t.stop.(i) <- Unix.gettimeofday ();
  match t.stack with
  | j :: rest when j = i -> t.stack <- rest
  | _ -> invalid_arg "Spans.leave: spans must close innermost first"

(** Run [f] inside a span named [id]. *)
let span t id f =
  let i = enter t id in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

(** Start a new request: subsequent spans carry its id. *)
let request t r = t.cur_req <- r

type layer = { l_name : string; l_count : int; l_self_s : float; l_total_s : float }

(** Per-name count, self time (duration minus the time covered by
    direct children) and total time. *)
let layers t : layer list =
  let k = Array.length t.name_of in
  let count = Array.make k 0 and self = Array.make k 0. and total = Array.make k 0. in
  let child = Array.make t.n 0. in
  for i = t.n - 1 downto 0 do
    let d = t.stop.(i) -. t.start.(i) in
    let id = t.name.(i) in
    count.(id) <- count.(id) + 1;
    total.(id) <- total.(id) +. d;
    self.(id) <- self.(id) +. (d -. child.(i));
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. d
  done;
  List.init k (fun id ->
      { l_name = t.name_of.(id); l_count = count.(id); l_self_s = self.(id); l_total_s = total.(id) })

(** Write every span as one line:
    [index name start_us end_us parent request], times relative to the
    first span. *)
let write t path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.start.(0) else 0. in
  output_string oc "index\tname\tstart_us\tend_us\tparent\trequest\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%.3f\t%.3f\t%d\t%d\n" i t.name_of.(t.name.(i))
      ((t.start.(i) -. t0) *. 1e6)
      ((t.stop.(i) -. t0) *. 1e6)
      t.parent.(i) t.req.(i)
  done;
  close_out oc
