(* Host-speed calibration.

   The cores this benchmark runs on are shared, and other tenants load the
   memory system: a fixed allocating loop and the simulator both ran up to
   1.5x slower for seconds at a time, in process CPU time as well as in
   wall time, while a register-only loop kept its speed.  From one run to
   the next the simulator's throughput moved by up to a factor of two with
   nothing else changed.  A raw host time would measure the host, not the
   simulator.  So the benchmark times a fixed reference workload between
   every two machines it runs and rescales each machine's host times to a
   nominal host:

     nominal seconds = host seconds * nominal_s / reference seconds

   where the reference seconds are the mean of the readings on either side.
   A slower host stretches the machine and the reference alike and leaves
   the nominal time where it was; a faster simulator shortens only the
   machine.

   The reference is plain OCaml that uses the runtime the way the
   simulator does: an ordered map and a hash table that grow to about a
   megabyte, with small blocks allocated and dropped at every step.  Of
   the loops tried, its slowdowns tracked the simulator's most closely; a
   loop of random reads over a large table over-reacted and a
   register-only loop did not react (perfbench/README.md has the figures).
   It uses nothing under lib/, so no change to the simulator moves it.
   Its code and [nominal_s] define the scale: change neither. *)

module IM = Map.Make (Int)

let steps = 30_000

(* One fixed piece of work; returns a checksum so that none of it can be
   dropped. *)
let reference () =
  let m = ref IM.empty in
  let h = Hashtbl.create 1024 in
  let sum = ref 0 in
  for i = 1 to steps do
    m := IM.add ((i * 7919) land 0xffff) i !m;
    Hashtbl.replace h (i land 4095) [ i; i + 1 ];
    sum := !sum + List.length (Hashtbl.find h (i land 4095))
  done;
  !sum + IM.cardinal !m

(* CPU seconds of one reference run. *)
let sample () =
  let t0 = Probe.cpu_now () in
  ignore (Sys.opaque_identity (reference ()));
  Probe.cpu_now () -. t0

(* Reference seconds now: the median of three runs.  Full major
   collections on either side keep the workload's garbage out of the
   reference's time and the reference's garbage out of the workload's. *)
let reference_s () =
  Gc.full_major ();
  let a = sample () in
  let b = sample () in
  let c = sample () in
  Gc.full_major ();
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* The reference's seconds on the nominal host: about what it took on a
   2-vCPU Intel Xeon at 2.1 GHz under OCaml 5.1.1 in that host's faster
   periods. *)
let nominal_s = 0.020

(* The newest reading. *)
let last = ref None

let read () =
  let r = Probe.span "Calib.reference" reference_s in
  last := Some r;
  r

(* [bracket f] runs [f ()], reads the reference after it, and applies
   [f]'s result to the factor that turns host seconds measured over that
   interval into nominal seconds. *)
let bracket f =
  let before = match !last with Some r -> r | None -> read () in
  let k = f () in
  let after = read () in
  k (nominal_s /. ((before +. after) /. 2.0))
