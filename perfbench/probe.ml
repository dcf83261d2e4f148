(* Host-side measurement for the benchmark: clock, allocation,
   spans around the benchmark's calls into each layer, GC pauses read from
   Runtime_events, and the small statistics the report needs.

   Everything here measures the simulator from outside: nothing in the
   libraries under test knows it is being watched. *)

let now = Unix.gettimeofday

(* CPU seconds (user and system) the process has used.  Every host time
   the benchmark reports is taken with this clock, on one domain: unlike
   [now], it leaves out time the process spent waiting for a core that
   the host or another process had. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words the calling domain has allocated: minor allocations plus
   direct major allocations.  Both counters are per domain in OCaml 5.
   The minor count comes from [Gc.minor_words], which reads the minor
   heap's allocation pointer; the minor count inside [Gc.counters] and
   [Gc.quick_stat] only moves at minor collections, so deltas taken
   from it jump by whole fractions of the minor heap. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let promoted_words () =
  let _, promoted, _ = Gc.counters () in
  promoted

let collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let peak_heap_bytes () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of raw samples. *)
let percentile xs ~pct =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (pct /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* Percentile of a log2 histogram, interpolated linearly inside the
   bucket that holds the rank and capped at the largest value seen.
   [Histo.percentile] answers with the bucket's upper edge, so two
   distributions that share a bucket read the same; interpolation
   keeps the estimate moving with the data.  Either way the error is
   bounded by the bucket's width, a factor of two. *)
let histo_percentile h ~pct =
  let module H = Multics_obs.Histo in
  let count = H.count h in
  if count = 0 then 0.0
  else begin
    let target = pct /. 100.0 *. float_of_int count in
    let rec walk seen = function
      | [] -> float_of_int (H.max_value h)
      | (lo, hi, c) :: rest ->
          let seen' = seen +. float_of_int c in
          if seen' >= target then
            let frac = (target -. seen) /. float_of_int c in
            let v = float_of_int lo +. (frac *. float_of_int (hi - lo + 1)) in
            Float.min v (float_of_int (H.max_value h))
          else walk seen' rest
    in
    walk 0.0 (H.buckets h)
  end

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* ------------------------------------------------------------------ *)
(* Spans: one record per call the benchmark makes into a layer's public
   function, kept in memory and written out when the run ends.  A span
   carries its parent (the enclosing span on the same domain, or the
   span that farmed the work out to a worker domain) and the GC deltas
   its domain saw while it was open. *)

type span = {
  id : int;
  name : string;
  parent : int;
  domain : int;
  start : float;
  stop : float;
  words : float;
  minor_gcs : int;
  major_gcs : int;
}

let spans_on = Atomic.make false
let next_id = Atomic.make 1
let farm_parent = Atomic.make 0
let lock = Mutex.create ()
let recorded : span list ref = ref []
let n_recorded = ref 0
let max_spans = 500_000
let stack = Domain.DLS.new_key (fun () -> ref [])

let record s =
  Mutex.lock lock;
  if !n_recorded < max_spans then begin
    recorded := s :: !recorded;
    incr n_recorded
  end;
  Mutex.unlock lock

let span name f =
  if not (Atomic.get spans_on) then f ()
  else begin
    let st = Domain.DLS.get stack in
    let parent =
      match !st with p :: _ -> p | [] -> Atomic.get farm_parent
    in
    let id = Atomic.fetch_and_add next_id 1 in
    st := id :: !st;
    let w0 = alloc_words () and mi0, ma0 = collections () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let mi1, ma1 = collections () in
      st := List.tl !st;
      record
        { id; name; parent; domain = (Domain.self () :> int); start = t0;
          stop = t1; words = alloc_words () -. w0; minor_gcs = mi1 - mi0;
          major_gcs = ma1 - ma0 }
    in
    Fun.protect ~finally:finish f
  end

(* Run [f] with the current span as the parent of spans opened on
   other domains while it runs. *)
let farming f =
  let st = Domain.DLS.get stack in
  let prev = Atomic.get farm_parent in
  (match !st with p :: _ -> Atomic.set farm_parent p | [] -> ());
  Fun.protect ~finally:(fun () -> Atomic.set farm_parent prev) f

let spans () = List.rev !recorded

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_spans ~path ~header =
  let oc = open_out path in
  let t0 = match spans () with s :: _ -> s.start | [] -> 0.0 in
  Printf.fprintf oc "{\"host\": %s,\n \"dropped\": %d,\n \"spans\": [" header
    (max 0 (Atomic.get next_id - 1 - !n_recorded));
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n  {\"id\": %d, \"name\": %s, \"parent\": %d, \"domain\": %d, \
         \"start_us\": %.1f, \"end_us\": %.1f, \"alloc_words\": %.0f, \
         \"minor_gcs\": %d, \"major_gcs\": %d}"
        (if i = 0 then "" else ",")
        s.id (json_string s.name) s.parent s.domain
        ((s.start -. t0) *. 1e6)
        ((s.stop -. t0) *. 1e6)
        s.words s.minor_gcs s.major_gcs)
    (spans ());
  output_string oc "\n ]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* GC pauses from Runtime_events.  A domain is paused while it is inside
   any collector phase; nested phases are counted once.  The ring is
   small (64 Ki words per domain), so a systhread drains it every few
   milliseconds while the main thread is busy inside a long call. *)

module Pause = struct
  module RE = Runtime_events

  let is_pause = function
    | RE.EV_MINOR | RE.EV_MAJOR | RE.EV_MAJOR_SLICE | RE.EV_STW_LEADER
    | RE.EV_STW_HANDLER | RE.EV_MAJOR_GC_STW | RE.EV_EXPLICIT_GC_MINOR
    | RE.EV_EXPLICIT_GC_MAJOR | RE.EV_EXPLICIT_GC_FULL_MAJOR
    | RE.EV_EXPLICIT_GC_COMPACT | RE.EV_EXPLICIT_GC_MAJOR_SLICE ->
        true
    | _ -> false

  let depth = Hashtbl.create 8
  let opened = Hashtbl.create 8
  let paused_ns = ref 0L
  let lost = ref 0
  let poll_lock = Mutex.create ()
  let cursor = ref None
  let stop = Atomic.make false
  let poller = ref None

  let callbacks =
    RE.Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        if is_pause phase then begin
          let d = Option.value ~default:0 (Hashtbl.find_opt depth ring) in
          if d = 0 then
            Hashtbl.replace opened ring (RE.Timestamp.to_int64 ts);
          Hashtbl.replace depth ring (d + 1)
        end)
      ~runtime_end:(fun ring ts phase ->
        if is_pause phase then
          match Hashtbl.find_opt depth ring with
          | Some d when d > 0 ->
              Hashtbl.replace depth ring (d - 1);
              if d = 1 then
                paused_ns :=
                  Int64.add !paused_ns
                    (Int64.sub (RE.Timestamp.to_int64 ts)
                       (Hashtbl.find opened ring))
          | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let poll () =
    Mutex.lock poll_lock;
    (match !cursor with
    | Some c -> ignore (RE.read_poll c callbacks None)
    | None -> ());
    Mutex.unlock poll_lock

  let start () =
    RE.start ();
    cursor := Some (RE.create_cursor None);
    poller :=
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get stop) do
               Thread.delay 0.005;
               poll ()
             done)
           ())

  (* Collector time seen so far, in host seconds, summed over domains. *)
  let paused_s () =
    poll ();
    Int64.to_float !paused_ns /. 1e9

  let lost_events () = !lost

  let finish () =
    Atomic.set stop true;
    Option.iter Thread.join !poller;
    poller := None;
    poll ();
    Option.iter RE.free_cursor !cursor;
    cursor := None;
    RE.pause ()
end
