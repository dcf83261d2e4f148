(* The computing utility: four [default_config] kernel shards behind the
   cluster's consistent-hash ring, run at one domain.  Logins arrive
   open-loop in simulated time, in waves of 16 every 2 ms on average; the
   seed draws each gap uniformly from 1.5 to 2.5 ms, so the makespan
   moves with the inputs instead of reading the same for every seed.
   Each session
   computes 3 x 60 us and creates one segment under a key the ring
   scatters, so about three creates in four cross shards.  No session
   carries a deadline, so nothing is shed: every failure is a defect. *)

module K = Multics_kernel
module C = Multics_cluster

let shards = 4
let wave = 16
let wave_gap_min_ns = 1_500_000
let wave_gap_spread_ns = 1_000_000
let keys = 128

let setup ~users (p : Wl.params) =
  let users = if p.Wl.tiny then users / 20 else users in
  let seed = p.Wl.seed in
  let kconfig = { K.Kernel.default_config with K.Kernel.trace = p.Wl.kernel_trace } in
  let c =
    Probe.span "Cluster.create" (fun () ->
        C.Cluster.create
          (C.Cluster.config (List.init shards (fun _ -> C.Cluster.Kernel_shard kconfig))))
  in
  let user i = Printf.sprintf "u%d-%06d" seed i in
  let register_s = ref [] in
  Probe.span "Cluster.register_user" (fun () ->
      for i = 0 to users - 1 do
        let t = Probe.cpu_now () in
        C.Cluster.register_user c ~user:(user i) ~password:"pw";
        register_s := (Probe.cpu_now () -. t) :: !register_s
      done);
  let prog = K.Workload.compute_bound ~steps:3 ~step_ns:60_000 in
  let prng = K.Workload.Prng.create ~seed:(Wl.mix seed (-1)) in
  Probe.span "Cluster.login_at" (fun () ->
      let at = ref 1_000_000 in
      for i = 0 to users - 1 do
        if i > 0 && i mod wave = 0 then
          at := !at + wave_gap_min_ns + K.Workload.Prng.int prng wave_gap_spread_ns;
        let key = Printf.sprintf "s%d-%d" seed (K.Workload.Prng.int prng keys) in
        C.Cluster.login_at c ~at_ns:!at ~remote_keys:[ key ] ~user:(user i)
          ~password:"pw" prog
      done);
  let kernels () =
    List.filter_map
      (fun i -> C.Shard.kernel (C.Cluster.shard c i))
      (List.init shards Fun.id)
  in
  let before = List.map Wl.kernel_counts (kernels ()) in
  let run_s = ref 0.0 in
  let run () =
    let t = Probe.cpu_now () in
    Probe.span "Cluster.run" (fun () -> C.Cluster.run ~domains:p.Wl.domains c);
    run_s := Probe.cpu_now () -. t
  in
  let finish () =
    let st = C.Cluster.stats c in
    let after = List.map Wl.kernel_counts (kernels ()) in
    let counts =
      Wl.sum (List.map2 (fun before after -> Wl.delta ~before ~after) before after)
    in
    let conserved = C.Cluster.frames_conserved c in
    let invariants = C.Cluster.invariants c in
    let problems =
      List.concat
        [ (if st.C.Cluster.st_sessions_closed = users then []
           else
             [ Printf.sprintf "%d of %d sessions closed"
                 st.C.Cluster.st_sessions_closed users ]);
          (if st.C.Cluster.st_settled_pages = st.C.Cluster.st_charged_pages then []
           else
             [ Printf.sprintf "settled %d pages but charged %d"
                 st.C.Cluster.st_settled_pages st.C.Cluster.st_charged_pages ]);
          (if st.C.Cluster.st_ledger_pages = 0 then []
           else [ Printf.sprintf "%d pages left in ledgers" st.C.Cluster.st_ledger_pages ]);
          List.map (fun (s, v) -> Printf.sprintf "shard %d: %s" s v) invariants;
          (if conserved then [] else [ "page frames not conserved" ]) ]
    in
    let failed =
      st.C.Cluster.st_login_failures + st.C.Cluster.st_shed
      + st.C.Cluster.st_failed
    in
    let h = C.Cluster.call_histo c in
    let per_shard = st.C.Cluster.st_per_shard_logins in
    let logins = Array.fold_left ( + ) 0 per_shard in
    let sinks = List.map K.Kernel.obs (kernels ()) in
    let worst name pct =
      List.fold_left
        (fun acc s -> Float.max acc (Wl.histo_pct s name ~pct))
        0.0 sinks
    in
    let ks = kernels () in
    let dump_ms =
      let t = Probe.cpu_now () in
      Probe.span "Kernel.flight_dump" (fun () ->
          List.iter (fun k -> ignore (K.Kernel.flight_dump k)) ks);
      (Probe.cpu_now () -. t) *. 1e3 /. float_of_int (List.length ks)
    in
    let layers =
      Wl.kernel_layers ~ops:st.C.Cluster.st_sessions_closed counts
      @ [ ("pfm.page_read_p50_us", worst "pfm.page_read" 50.0 /. 1e3);
          ("pfm.page_read_p95_us", worst "pfm.page_read" 95.0 /. 1e3);
          ("sched.ready_wait_p95_us", worst "sched.ready_wait" 95.0 /. 1e3);
          ("obs.flight_dump_ms", dump_ms);
          ("as.register_us", Probe.median !register_s *. 1e6);
          ("as.login_failures", float_of_int st.C.Cluster.st_login_failures);
          ("cluster.barriers", float_of_int st.C.Cluster.st_barriers);
          ( "cluster.host_ms_per_barrier",
            !run_s *. 1e3 /. float_of_int (max 1 st.C.Cluster.st_barriers) );
          ("cluster.messages", float_of_int st.C.Cluster.st_messages);
          ("cluster.remote_calls", float_of_int st.C.Cluster.st_remote_calls);
          ("cluster.local_calls", float_of_int st.C.Cluster.st_local_calls);
          ("cluster.call_rtt_p50_ms", Probe.histo_percentile h ~pct:50.0 /. 1e6);
          ("cluster.call_rtt_p95_ms", Probe.histo_percentile h ~pct:95.0 /. 1e6);
          ( "cluster.load_skew",
            Probe.ratio
              (float_of_int (Array.fold_left max 0 per_shard))
              (float_of_int logins /. float_of_int shards) ) ]
    in
    Probe.span "Cluster.shutdown" (fun () -> C.Cluster.shutdown c);
    { Wl.ops = users;
      failed;
      sim_s = float_of_int st.C.Cluster.st_makespan_ns /. 1e9;
      digest = C.Cluster.fingerprint c;
      problems;
      layers;
      worker_words = 0.0 }
  in
  { Wl.run; finish }

let workload =
  { Wl.name = "utility"; domains = 1; instances = 1; other_domains = Some 2;
    boot_config = K.Kernel.default_config;
    setup = setup ~users:5000 }
