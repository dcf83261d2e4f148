(* The shape every workload shares.  [setup] builds the system (timed as
   set-up), [run] is the measured phase, [finish] checks the outputs and
   reads the layers' counters (untimed).  Rounds of one seed repeat the
   same inputs, so [digest] and the simulated figures must repeat too. *)

module K = Multics_kernel
module Obs = Multics_obs

type params = {
  seed : int;
  tiny : bool;  (** the self-test's size: seconds, not minutes *)
  domains : int;
  kernel_trace : Obs.Sink.mode;
}

type outcome = {
  ops : int;
  failed : int;  (** ops that failed or were refused *)
  sim_s : float;  (** simulated seconds the modelled system took *)
  digest : string;  (** deterministic fingerprint of the round's result *)
  problems : string list;  (** failed correctness checks *)
  layers : (string * float) list;  (** per-layer metrics this round *)
  worker_words : float;
      (** words allocated on domains other than the caller's *)
}

type instance = { run : unit -> unit; finish : unit -> outcome }

type t = {
  name : string;
  domains : int;  (** domains the measured phase uses *)
  instances : int;  (** machines per round, each with its own derived seed *)
  other_domains : int option;
      (** for workloads that farm over [Par]: the domain count the traced
          run compares [domains] with *)
  boot_config : K.Kernel.config;
      (** the config whose boot [kernel.boot_ms] times *)
  setup : params -> instance;
}

let low = Multics_aim.Label.system_low
let open_acl = [ K.Acl.entry "*" K.Acl.rwe ]

(* A mix of the seed and an index, for per-process PRNG seeds. *)
let mix seed i = Hashtbl.hash (seed, i, "perfbench")

let histo_pct sink name ~pct =
  match List.find_opt (fun h -> Obs.Histo.name h = name) (Obs.Sink.histos sink) with
  | Some h -> Probe.histo_percentile h ~pct
  | None -> 0.0

(* Meter managers whose simulated seconds are reported as
   [meter.<manager>_s]: the ones that carry most of the cost on at least
   one workload. *)
let meter_managers =
  [ "page_frame_manager"; "disk_pack_manager"; "user_process_manager";
    "segment_manager"; "directory_manager"; "address_space_manager";
    "known_segment_manager"; "quota_cell_manager"; "gate";
    "answering_service"; "login_server" ]

(* Absolute kernel-side counters.  A workload snapshots them before and
   after its measured phase; [delta] and [sum] keep peaks as peaks, so
   cluster shards can be added before ratios are taken. *)
let kernel_counts k =
  let counters = Obs.Sink.counters (K.Kernel.obs k) in
  let c name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name counters))
  in
  let st = K.Kernel.stats k and io = K.Kernel.io_stats k in
  let pfm = K.Kernel.page_frame k in
  let meter = (K.Kernel.meter_snapshot k).K.Meter.snap_managers in
  [ ("hw.events", c "hw.event_pop");
    ("raw.tlb_hits", float_of_int st.K.Kernel.tlb_hits);
    ("raw.tlb_misses", float_of_int st.K.Kernel.tlb_misses);
    ("hw.tlb_flushes", float_of_int st.K.Kernel.tlb_flushes);
    ("io.reads", float_of_int io.K.Kernel.io_reads);
    ("io.writes", float_of_int io.K.Kernel.io_writes);
    ("io.batches", float_of_int io.K.Kernel.io_batches);
    ("io.merges", float_of_int io.K.Kernel.io_merges);
    ("io.queue_peak", float_of_int io.K.Kernel.io_queue_peak);
    ("io.busy_s", float_of_int io.K.Kernel.io_busy_ns /. 1e9);
    ("io.buffer_hits", c "io.buffer_hit");
    ("raw.prefetch_issued", float_of_int io.K.Kernel.prefetch_issued);
    ("raw.prefetch_hits", float_of_int io.K.Kernel.prefetch_hits);
    ("raw.faults", c "pfm.fault");
    ("pfm.evictions", float_of_int (K.Page_frame.evictions pfm));
    ("pfm.zero_reclaims", float_of_int (K.Page_frame.zero_reclaims pfm));
    ("pfm.cleaner_passes", c "pfm.cleaner_pass");
    ("vp.dispatches", c "vp.dispatch");
    ("vp.context_switches", c "vp.context_switch");
    ("raw.lock_contentions", c "lock.contention");
    ("raw.lock_acquires", c "lock.acquire");
    ("ec.waits", c "ec.wait") ]
  @ List.map
      (fun m ->
        ( Printf.sprintf "meter.%s_s" m,
          float_of_int (Option.value ~default:0 (List.assoc_opt m meter)) /. 1e9 ))
      meter_managers

let is_peak name = name = "io.queue_peak"

let delta ~before ~after =
  List.map
    (fun (name, v) ->
      if is_peak name then (name, v) else (name, v -. List.assoc name before))
    after

let sum = function
  | [] -> []
  | first :: _ as ls ->
      List.map
        (fun (name, _) ->
          let vs = List.map (List.assoc name) ls in
          ( name,
            if is_peak name then List.fold_left Float.max 0.0 vs
            else List.fold_left ( +. ) 0.0 vs ))
        first

(* Turn summed raw counts into the reported per-layer metrics. *)
let kernel_layers ~ops counts =
  let g name = List.assoc name counts in
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"raw." name))
    counts
  @ [ ( "hw.tlb_hit_ratio",
        Probe.ratio (g "raw.tlb_hits") (g "raw.tlb_hits" +. g "raw.tlb_misses") );
      ("io.mean_batch", Probe.ratio (g "io.reads" +. g "io.writes") (g "io.batches"));
      ( "io.prefetch_hit_ratio",
        Probe.ratio (g "raw.prefetch_hits") (g "raw.prefetch_issued") );
      ("pfm.faults_per_op", Probe.ratio (g "raw.faults") (float_of_int ops));
      ( "lock.contention_ratio",
        Probe.ratio (g "raw.lock_contentions") (g "raw.lock_acquires") ) ]

let frames_conserved k =
  let pfm = K.Kernel.page_frame k in
  let used = ref 0 in
  K.Page_frame.iter_used pfm (fun ~frame:_ ~ptw_abs:_ -> incr used);
  !used + K.Page_frame.free_frames pfm = K.Page_frame.n_frames pfm
