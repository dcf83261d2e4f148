(* The schedule explorer: [Explore.check_random] over
   [Harness.kernel_system ()] on consecutive seeds.  Every schedule boots
   a fresh small kernel, runs a ping-pong workload to quiescence, applies
   the invariant oracle and dumps its flight recorder, so boot, the
   choice points and the dump carry the cost; paging and the cluster stay
   idle.

   The measured runs use one domain.  At two domains on a two-core
   shared host, the second core's speed is not tracked by the host-speed
   reference ([Calib]) and the heap's high-water mark depends on how the
   domains' collections interleave: over 10 seeds [ops_per_s] spread
   0.11 and [peak_heap_mb] 0.17 (quartile distance over median), against
   0.05 and 0.05 at one domain.  The traced run's other-domains arm farms
   the same search over two [Par] domains; its result must match and its
   time ratio is [par.speedup].

   The benchmark wraps [sys_run] to time each schedule and to count the
   words it allocates on its own domain, because [Gc.counters] only
   sees the calling domain.  Each domain gets its own harness instance:
   the harness keeps the last flight dump in a reference, which two
   domains must not share. *)

module K = Multics_kernel
module X = Multics_check

type sample = { host_s : float; sim_ns : int; words : float; violated : bool }

let lock = Mutex.create ()
let samples : sample list ref = ref []
let harnesses = Domain.DLS.new_key (fun () -> Hashtbl.create 2)

(* This domain's harness for the given trace mode. *)
let harness mode =
  let tbl = Domain.DLS.get harnesses in
  match Hashtbl.find_opt tbl mode with
  | Some sys -> sys
  | None ->
      let config = { K.Kernel.small_config with K.Kernel.trace = mode } in
      let sys = X.Harness.kernel_system ~config () in
      Hashtbl.replace tbl mode sys;
      sys

(* The simulated instant of the flight recorder's newest event: each
   dump line starts with its event's time in ns. *)
let last_event_ns dump =
  let stop = String.length dump - 1 in
  let stop = if stop >= 0 && dump.[stop] = '\n' then stop - 1 else stop in
  match String.rindex_from_opt dump stop '\n' with
  | None -> 0
  | Some nl -> (
      let line = String.sub dump (nl + 1) (stop - nl) in
      match String.split_on_char ' ' (String.trim line) with
      | t :: _ -> Option.value ~default:0 (int_of_string_opt t)
      | [] -> 0)

let system mode =
  let sys_run choice =
    let inner = harness mode in
    let main = Domain.is_main_domain () in
    let w0 = Probe.alloc_words () in
    let t0 = Probe.cpu_now () in
    let problems = Probe.span "Explore.sys_run" (fun () -> inner.X.Explore.sys_run choice) in
    let t1 = Probe.cpu_now () in
    let dump = match inner.X.Explore.sys_flight with Some f -> f () | None -> "" in
    let s =
      { host_s = t1 -. t0; sim_ns = last_event_ns dump;
        words = (if main then 0.0 else Probe.alloc_words () -. w0);
        violated = problems <> [] }
    in
    Mutex.lock lock;
    samples := s :: !samples;
    Mutex.unlock lock;
    problems
  in
  { X.Explore.sys_name = "perfbench-kernel-pingpong"; sys_run; sys_flight = None }

let digest_of = function
  | X.Explore.Passed st ->
      Printf.sprintf "passed runs=%d distinct=%d decisions=%d" st.X.Explore.runs
        st.X.Explore.distinct st.X.Explore.decisions
  | X.Explore.Failed { f_seed; f_problems; _ } ->
      Printf.sprintf "failed seed=%s problems=%s"
        (match f_seed with Some s -> string_of_int s | None -> "-")
        (String.concat "; " f_problems)

let setup ~runs (p : Wl.params) =
  let runs = if p.Wl.tiny then runs / 20 else runs in
  let sys = Probe.span "Explore.system" (fun () -> system p.Wl.kernel_trace) in
  let baseline = Probe.span "Explore.check_default" (fun () -> X.Explore.check_default sys) in
  let outcome = ref baseline in
  let run () =
    Mutex.lock lock;
    samples := [];
    Mutex.unlock lock;
    outcome :=
      Probe.span "Explore.check_random" (fun () ->
          Probe.farming (fun () ->
              X.Explore.check_random ~domains:p.Wl.domains ~runs
                ~seed:((p.Wl.seed * 1_000_000) + 1)
                sys))
  in
  let finish () =
    let ss = !samples in
    let problems =
      (match baseline with
      | X.Explore.Passed _ -> []
      | X.Explore.Failed _ -> [ "default schedule: " ^ digest_of baseline ])
      @ (match !outcome with
        | X.Explore.Passed _ -> []
        | X.Explore.Failed _ -> [ "random search: " ^ digest_of !outcome ])
      @
      if List.length ss = runs then []
      else [ Printf.sprintf "%d of %d schedules sampled" (List.length ss) runs ]
    in
    let st =
      match !outcome with
      | X.Explore.Passed st -> st
      | X.Explore.Failed { f_stats; _ } -> f_stats
    in
    let failed = List.length (List.filter (fun s -> s.violated) ss) in
    let host_ms = List.map (fun s -> s.host_s *. 1e3) ss in
    let n = float_of_int (max 1 st.X.Explore.runs) in
    let sim_ns = List.fold_left (fun acc s -> acc + s.sim_ns) 0 ss in
    { Wl.ops = runs;
      failed;
      sim_s = float_of_int sim_ns /. 1e9 /. float_of_int (max 1 (List.length ss));
      digest = digest_of !outcome;
      problems;
      layers =
        [ ("explore.schedule_p50_ms", Probe.percentile host_ms ~pct:50.0);
          ("explore.schedule_p99_ms", Probe.percentile host_ms ~pct:99.0);
          ("explore.decisions_per_schedule", float_of_int st.X.Explore.decisions /. n);
          ("explore.distinct_ratio", float_of_int st.X.Explore.distinct /. n) ];
      worker_words = List.fold_left (fun acc s -> acc +. s.words) 0.0 ss }
  in
  { Wl.run; finish }

let workload =
  { Wl.name = "explore"; domains = 1; instances = 1; other_domains = Some 2;
    boot_config = K.Kernel.small_config;
    setup = setup ~runs:1000 }
