(* The repo benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--tiny] [--spans PATH] [--nproc N] [--commit SHA]

   With [--trace 0] it runs rounds of one workload for [S] host seconds
   with the benchmark's spans off and reports the end-to-end metrics.  With
   [--trace 1] it repeats the workload under several arms (untraced,
   traced, kernel tracing off, another domain count) and reports the
   per-layer metrics, the tracing overhead, and writes the spans.  The
   last line of standard output is one JSON object; the exit code is 0
   only when every correctness check passed. *)

module K = Multics_kernel
module Obs = Multics_obs

let workloads = [ Timeshare.read; Timeshare.write; Utility.workload; Explore_wl.workload ]

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("alloc_words_per_op", "words/op");
    ("peak_heap_mb", "MB"); ("sim_elapsed_s", "s") ]

let per_layer =
  [ ("hw.events", "count"); ("hw.host_ns_per_event", "ns");
    ("hw.tlb_hit_ratio", "ratio"); ("hw.tlb_flushes", "count");
    ("io.reads", "count"); ("io.writes", "count"); ("io.batches", "count");
    ("io.mean_batch", "records"); ("io.merges", "count");
    ("io.queue_peak", "count"); ("io.busy_s", "s"); ("io.buffer_hits", "count");
    ("io.prefetch_hit_ratio", "ratio"); ("pfm.faults_per_op", "faults/op");
    ("pfm.evictions", "count"); ("pfm.zero_reclaims", "count");
    ("pfm.cleaner_passes", "count"); ("pfm.page_read_p50_us", "us");
    ("pfm.page_read_p95_us", "us"); ("vp.dispatches", "count");
    ("vp.context_switches", "count"); ("sched.ready_wait_p95_us", "us");
    ("lock.contention_ratio", "ratio"); ("ec.waits", "count") ]
  @ List.map (fun m -> (Printf.sprintf "meter.%s_s" m, "s")) Wl.meter_managers
  @ [ ("kernel.boot_ms", "ms"); ("obs.sink_share", "ratio");
      ("obs.flight_dump_ms", "ms"); ("as.register_us", "us");
      ("as.login_failures", "count"); ("cluster.barriers", "count");
      ("cluster.host_ms_per_barrier", "ms"); ("cluster.messages", "count");
      ("cluster.remote_calls", "count"); ("cluster.local_calls", "count");
      ("cluster.call_rtt_p50_ms", "ms"); ("cluster.call_rtt_p95_ms", "ms");
      ("cluster.load_skew", "ratio"); ("explore.schedule_p50_ms", "ms");
      ("explore.schedule_p99_ms", "ms");
      ("explore.decisions_per_schedule", "count");
      ("explore.distinct_ratio", "ratio"); ("par.speedup", "ratio");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.promoted_words_per_op", "words/op"); ("gc.pause_share", "ratio") ]

(* ------------------------------------------------------------------ *)
(* Command line *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  spans_path : string;
  nproc : string;
  commit : string;
}

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) and tiny = ref false and spans_path = ref ""
  and nproc = ref "unknown" and commit = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--tiny", Arg.Set tiny, " tiny inputs (self-test)");
      ("--spans", Arg.Set_string spans_path, "PATH where the traced run writes spans");
      ("--nproc", Arg.Set_string nproc, "N host core count (for the header)");
      ("--commit", Arg.Set_string commit, "SHA source commit (for the header)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let bad fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
  if not (List.exists (fun w -> w.Wl.name = !workload) workloads) then
    bad "unknown workload %S (one of: %s)" !workload
      (String.concat ", " (List.map (fun w -> w.Wl.name) workloads));
  if !seed < 0 then bad "--seed must be a non-negative integer";
  if !seconds <= 0.0 then bad "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    tiny = !tiny; spans_path = !spans_path; nproc = !nproc; commit = !commit }

let host_header a =
  Printf.sprintf
    "{\"nproc\": %s, \"recommended_domain_count\": %d, \"ocaml\": %s, \
     \"ocamlrunparam\": %s, \"git_commit\": %s, \"workload\": %s, \
     \"seed\": %d, \"seconds\": %g, \"trace\": %d, \"size\": %s}"
    (Probe.json_string a.nproc)
    (Domain.recommended_domain_count ())
    (Probe.json_string Sys.ocaml_version)
    (Probe.json_string (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")))
    (Probe.json_string a.commit) (Probe.json_string a.workload) a.seed a.seconds
    (if a.trace then 1 else 0)
    (Probe.json_string (if a.tiny then "tiny" else "full"))

(* ------------------------------------------------------------------ *)
(* Rounds *)

type round = {
  setup_s : float;
  run_s : float;
  run_wall : float;  (** [run_s] on the wall clock, for [par.speedup] *)
  words : float;  (** all domains *)
  promoted : float;  (** calling domain *)
  minors : int;
  majors : int;
  paused_s : float;  (** collector time, all domains; traced arm only *)
  heap_bytes : float;  (** the runtime's top heap after the measured phase *)
  setup_n : float;  (** [setup_s] in nominal seconds (see [Calib]) *)
  run_n : float;  (** [run_s] in nominal seconds *)
  out : Wl.outcome;
}

(* Per-layer metrics that are host times, rescaled like [setup_s]. *)
let host_timed =
  [ "as.register_us"; "cluster.host_ms_per_barrier"; "explore.schedule_p50_ms";
    "explore.schedule_p99_ms"; "obs.flight_dump_ms" ]

let one_instance (w : Wl.t) params ~pauses =
  Calib.bracket @@ fun () ->
  let t0 = Probe.cpu_now () in
  let inst = Probe.span "setup" (fun () -> w.Wl.setup params) in
  let t1 = Probe.cpu_now () in
  let p0 = if pauses then Probe.Pause.paused_s () else 0.0 in
  let mi0, ma0 = Probe.collections () in
  let pr0 = Probe.promoted_words () in
  let w0 = Probe.alloc_words () in
  let t2 = Probe.cpu_now () and wall2 = Probe.now () in
  Probe.span "run" inst.Wl.run;
  let t3 = Probe.cpu_now () and wall3 = Probe.now () in
  let w1 = Probe.alloc_words () in
  let pr1 = Probe.promoted_words () in
  let mi1, ma1 = Probe.collections () in
  let p1 = if pauses then Probe.Pause.paused_s () else 0.0 in
  let heap = Probe.peak_heap_bytes () in
  let out = Probe.span "finish" inst.Wl.finish in
  fun scale ->
    let layers =
      List.map
        (fun (name, v) -> (name, if List.mem name host_timed then v *. scale else v))
        out.Wl.layers
    in
    { setup_s = t1 -. t0; run_s = t3 -. t2; run_wall = wall3 -. wall2; words = w1 -. w0 +. out.Wl.worker_words;
      promoted = pr1 -. pr0; minors = mi1 - mi0; majors = ma1 - ma0;
      paused_s = p1 -. p0; heap_bytes = heap; setup_n = (t1 -. t0) *. scale;
      run_n = (t3 -. t2) *. scale; out = { out with Wl.layers } }

(* A round runs the workload's instances one after another, each on its
   own machine with inputs from its own seed derived from the run's
   seed.  Set-up time and the per-layer figures are per instance (the
   mean); work, time and allocation add up. *)
let one_round (w : Wl.t) (params : Wl.params) ~pauses =
  let rs =
    List.init w.Wl.instances (fun j ->
        one_instance w { params with Wl.seed = Wl.mix params.Wl.seed j } ~pauses)
  in
  let n = float_of_int w.Wl.instances in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rs in
  let isum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let first = List.hd rs in
  { setup_s = sum (fun r -> r.setup_s) /. n;
    run_s = sum (fun r -> r.run_s);
    run_wall = sum (fun r -> r.run_wall);
    words = sum (fun r -> r.words);
    promoted = sum (fun r -> r.promoted);
    minors = isum (fun r -> r.minors);
    majors = isum (fun r -> r.majors);
    paused_s = sum (fun r -> r.paused_s);
    heap_bytes = List.fold_left (fun acc r -> Float.max acc r.heap_bytes) 0.0 rs;
    setup_n = sum (fun r -> r.setup_n) /. n;
    run_n = sum (fun r -> r.run_n);
    out =
      { Wl.ops = isum (fun r -> r.out.Wl.ops);
        failed = isum (fun r -> r.out.Wl.failed);
        sim_s = sum (fun r -> r.out.Wl.sim_s) /. n;
        digest = String.concat " | " (List.map (fun r -> r.out.Wl.digest) rs);
        problems = List.concat_map (fun r -> r.out.Wl.problems) rs;
        layers =
          List.map
            (fun (name, _) ->
              (name, sum (fun r -> List.assoc name r.out.Wl.layers) /. n))
            first.out.Wl.layers;
        worker_words = sum (fun r -> r.out.Wl.worker_words) } }

let med f rs = Probe.median (List.map f rs)
let ops r = float_of_int r.out.Wl.ops

(* Rounds of one arm until [budget] host seconds of set-up and measured
   phase have passed, and at least [min_rounds]. *)
let rounds w params ~budget ~min_rounds ~pauses =
  let rec go acc spent n =
    if n >= min_rounds && spent >= budget then List.rev acc
    else
      let r = Probe.span "round" (fun () -> one_round w params ~pauses) in
      Printf.printf
        "round %d setup_s %.6f run_s %.6f nominal_run_s %.6f ops %d words/op %.3f heap_mb %.1f\n%!"
        n r.setup_s r.run_s r.run_n r.out.Wl.ops (r.words /. ops r) (r.heap_bytes /. 1e6);
      go (r :: acc) (spent +. r.setup_s +. r.run_s) (n + 1)
  in
  go [] 0.0 0


type summary = {
  e2e : (string * float) list;
  attempted : int;
  failed : int;
  problems : string list;
}

(* Correctness over an arm: every round's checks pass, and rounds of one
   seed agree on the result and on simulated time. *)
let arm_problems ~arm rs =
  let first = List.hd rs in
  List.concat_map
    (fun r ->
      List.map (fun p -> arm ^ ": " ^ p) r.out.Wl.problems
      @ (if r.out.Wl.digest = first.out.Wl.digest then []
         else
           [ Printf.sprintf "%s: result differs between rounds of one seed (%s vs %s)"
               arm first.out.Wl.digest r.out.Wl.digest ])
      @
      if r.out.Wl.sim_s = first.out.Wl.sim_s then []
      else
        [ Printf.sprintf "%s: simulated time differs between rounds (%.9f vs %.9f)"
            arm first.out.Wl.sim_s r.out.Wl.sim_s ])
    rs

let summarise ~arm rs =
  { e2e =
      [ ("setup_s", med (fun r -> r.setup_n) rs);
        ("ops_per_s", med (fun r -> ops r /. r.run_n) rs);
        ("alloc_words_per_op", med (fun r -> r.words /. ops r) rs);
        (* The runtime's top heap only grows, so rounds after the first
           would make it depend on how many rounds the host had time for. *)
        ("peak_heap_mb", (List.hd rs).heap_bytes /. 1e6);
        ("sim_elapsed_s", (List.hd rs).out.Wl.sim_s) ];
    attempted = List.fold_left (fun n r -> n + r.out.Wl.ops) 0 rs;
    failed = List.fold_left (fun n r -> n + r.out.Wl.failed) 0 rs;
    problems = arm_problems ~arm rs }

let alloc_repeats rs =
  match rs with
  | [] -> true
  | r :: rest -> List.for_all (fun r' -> r'.words = r.words) rest

(* ------------------------------------------------------------------ *)
(* Per-layer probes that time a layer's public call directly. *)

let boot_ms (cfg : K.Kernel.config) ~n =
  Calib.bracket @@ fun () ->
  let ms =
    Probe.median
      (List.init n (fun _ ->
           let t = Probe.cpu_now () in
           ignore (Probe.span "Kernel.boot" (fun () -> K.Kernel.boot cfg));
           (Probe.cpu_now () -. t) *. 1e3))
  in
  fun scale -> ms *. scale

(* The flight dump of a kernel of [cfg] that has run two short compute
   processes, enough to fill its 256-event flight ring: for workloads
   whose kernels the benchmark cannot reach. *)
let probe_dump_ms (cfg : K.Kernel.config) ~n =
  Calib.bracket @@ fun () ->
  let ms =
    Probe.median
      (List.init n (fun i ->
           let k = K.Kernel.boot cfg in
           for j = 0 to 1 do
             ignore
               (K.Kernel.spawn k ~pname:(Printf.sprintf "probe%d.%d" i j)
                  (K.Workload.compute_bound ~steps:100 ~step_ns:1_000))
           done;
           ignore (K.Kernel.run_to_completion k);
           let t = Probe.cpu_now () in
           ignore (Probe.span "Kernel.flight_dump" (fun () -> K.Kernel.flight_dump k));
           (Probe.cpu_now () -. t) *. 1e3))
  in
  fun scale -> ms *. scale

(* ------------------------------------------------------------------ *)
(* Output *)

let print_metric (name, unit) v = Printf.printf "metric %-34s %16.6f %s\n" name v unit

let json_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun ((name, unit), v) ->
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
             (Probe.json_string name) v (Probe.json_string unit))
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

let finite v = if Float.is_finite v then v else 0.0

let emit ~catalogue ~values ~attempted ~failed ~problems =
  let metrics =
    List.map
      (fun ((name, _) as m) ->
        (m, finite (Option.value ~default:0.0 (List.assoc_opt name values))))
      catalogue
  in
  List.iter (fun (m, v) -> print_metric m v) metrics;
  Printf.printf "failed_share %.6f (%d of %d ops)\n"
    (Probe.ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let correct = problems = [] in
  Printf.printf "%s\n%!" (json_result ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* The two kinds of run *)

let params a (w : Wl.t) =
  { Wl.seed = a.seed; tiny = a.tiny; domains = w.Wl.domains;
    kernel_trace = Obs.Sink.Counters }

(* One instance before any timing lets lazy initialisation finish and the
   heap grow; its checks still count. *)
let warm_up (w : Wl.t) p =
  let r = one_instance w { p with Wl.seed = Wl.mix p.Wl.seed 0 } ~pauses:false in
  List.map (fun e -> "warm-up: " ^ e) r.out.Wl.problems

let end_to_end_run a w =
  let p = params a w in
  let warm = warm_up w p in
  let rs = rounds w p ~budget:a.seconds ~min_rounds:2 ~pauses:false in
  let s = summarise ~arm:"measured" rs in
  Printf.printf "rounds %d; allocation %s across rounds\n" (List.length rs)
    (if alloc_repeats rs then "repeats exactly" else "varies");
  Printf.printf "unscaled: setup_s %.6f ops_per_s %.3f; host speed %.3f of nominal\n"
    (med (fun r -> r.setup_s) rs)
    (med (fun r -> ops r /. r.run_s) rs)
    (med (fun r -> r.run_n /. r.run_s) rs);
  (* What every process of one seed must reproduce exactly: run.py
     compares these lines across its processes. *)
  let first = List.hd rs in
  Printf.printf "repeat %s sim=%.17g%s\n" first.out.Wl.digest first.out.Wl.sim_s
    (if w.Wl.domains = 1 then Printf.sprintf " words=%.17g" first.words else "");
  emit ~catalogue:end_to_end ~values:s.e2e ~attempted:s.attempted
    ~failed:s.failed ~problems:(warm @ s.problems)

let traced_run a (w : Wl.t) =
  let p = params a w in
  let quarter = a.seconds /. 4.0 in
  let arm ?(params = p) ~spans ~pauses () =
    Atomic.set Probe.spans_on spans;
    let rs = rounds w params ~budget:quarter ~min_rounds:2 ~pauses in
    Atomic.set Probe.spans_on false;
    rs
  in
  let warm = warm_up w p in
  let plain = arm ~spans:false ~pauses:false () in
  Probe.Pause.start ();
  let traced = arm ~spans:true ~pauses:true () in
  Probe.Pause.finish ();
  let sink_off =
    arm ~params:{ p with Wl.kernel_trace = Obs.Sink.Off } ~spans:false
      ~pauses:false ()
  in
  (* The domain farm: the other domain count of the same inputs must give
     the same result, and the wall-time ratio is the speed-up. *)
  let par =
    Option.map
      (fun other ->
        (other, arm ~params:{ p with Wl.domains = other } ~spans:false ~pauses:false ()))
      w.Wl.other_domains
  in
  let probes = if a.tiny then 3 else 15 in
  Atomic.set Probe.spans_on true;
  let boot = boot_ms w.Wl.boot_config ~n:probes in
  Atomic.set Probe.spans_on false;
  let s_plain = summarise ~arm:"untraced" plain
  and s_traced = summarise ~arm:"traced" traced
  and s_off = summarise ~arm:"sink-off" sink_off in
  let par_problems, speedup =
    match par with
    | None -> ([], 0.0)
    | Some (other, rs) ->
        let s = summarise ~arm:(Printf.sprintf "%d-domain" other) rs in
        let mine = (List.hd plain).out.Wl.digest and theirs = (List.hd rs).out.Wl.digest in
        let t_mine = med (fun r -> r.run_wall) plain and t_other = med (fun r -> r.run_wall) rs in
        ( s.problems
          @ (if mine = theirs then []
             else
               [ Printf.sprintf "result differs at %d vs %d domains: %s vs %s"
                   w.Wl.domains other mine theirs ]),
          if w.Wl.domains = 1 then t_mine /. t_other else t_other /. t_mine )
  in
  (* Neither the benchmark's spans nor the kernels' sink may change what the
     simulated system does.  (With the sink off, [explore] has no flight
     recorder to read its simulated time from, so only digests compare.) *)
  let cross_arm =
    let digest rs = (List.hd rs).out.Wl.digest and sim rs = (List.hd rs).out.Wl.sim_s in
    (if digest plain = digest traced && sim plain = sim traced then []
     else [ "benchmark spans changed the result" ])
    @
    if digest plain = digest sink_off then []
    else [ "kernel trace Off changed the result" ]
  in
  (* Per-layer metrics: counts from the traced arm (they repeat exactly),
     host times as medians over its rounds. *)
  let layer name =
    Probe.median
      (List.filter_map (fun r -> List.assoc_opt name r.out.Wl.layers) traced)
  in
  let layer_names =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map fst r.out.Wl.layers) traced)
  in
  let events = layer "hw.events" in
  let instances = float_of_int w.Wl.instances in
  let t_run rs = med (fun r -> r.run_n) rs in
  let values =
    List.map (fun n -> (n, layer n)) layer_names
    @ [ ( "hw.host_ns_per_event",
          Probe.ratio (med (fun r -> r.run_n *. 1e9 /. instances) traced) events );
        ("kernel.boot_ms", boot);
        ("obs.sink_share", (t_run plain -. t_run sink_off) /. t_run plain);
        ("par.speedup", speedup);
        ("gc.minor_collections", med (fun r -> float_of_int r.minors /. instances) traced);
        ("gc.major_collections", med (fun r -> float_of_int r.majors /. instances) traced);
        ("gc.promoted_words_per_op", med (fun r -> r.promoted /. ops r) traced);
        ( "gc.pause_share",
          med (fun r -> r.paused_s /. (r.run_wall *. float_of_int w.Wl.domains)) traced ) ]
    @
    if List.mem "obs.flight_dump_ms" layer_names then []
    else [ ("obs.flight_dump_ms", probe_dump_ms w.Wl.boot_config ~n:probes) ]
  in
  let overhead name =
    let u = List.assoc name s_plain.e2e and t = List.assoc name s_traced.e2e in
    Printf.printf "trace overhead %-20s untraced %14.6f traced %14.6f (%+.2f%%)\n"
      name u t (100.0 *. (t -. u) /. u)
  in
  List.iter overhead [ "setup_s"; "ops_per_s"; "alloc_words_per_op" ];
  Printf.printf "kernel trace Off: ops_per_s %.3f vs %.3f with Counters\n"
    (List.assoc "ops_per_s" s_off.e2e) (List.assoc "ops_per_s" s_plain.e2e);
  Printf.printf "runtime events lost: %d\n" (Probe.Pause.lost_events ());
  if a.spans_path <> "" then begin
    Probe.write_spans ~path:a.spans_path ~header:(host_header a);
    Printf.printf "spans: %d written to %s\n" (List.length (Probe.spans ())) a.spans_path
  end;
  let all = plain @ traced @ sink_off in
  emit ~catalogue:per_layer ~values
    ~attempted:(List.fold_left (fun n r -> n + r.out.Wl.ops) 0 all)
    ~failed:(List.fold_left (fun n r -> n + r.out.Wl.failed) 0 all)
    ~problems:
      (warm @ s_plain.problems @ s_traced.problems @ s_off.problems @ par_problems
     @ cross_arm)

let () =
  let a = parse_args () in
  let w = List.find (fun w -> w.Wl.name = a.workload) workloads in
  Printf.printf "host %s\n%!" (host_header a);
  if a.trace then traced_run a w else end_to_end_run a w
