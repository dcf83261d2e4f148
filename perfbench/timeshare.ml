(* One timesharing machine at [Kernel.default_config] (2 CPUs, 256
   frames of which 224 are pageable).  Each of [users] processes fills
   its own [pages]-page file, then makes [touches] random touches over
   it; the files together hold about 2.6x the pageable frames, so most
   touches that miss take a page fault that reads the disk.  The loop
   is closed: a process issues its next touch when the last one is
   done.  The read and write workloads differ only in the share of
   touches that write. *)

module K = Multics_kernel
module C = Multics_cluster

let users = 12
let pages = 48

let program ~seed ~write_pct ~touches i =
  K.Workload.concat
    [ [| K.Workload.Initiate { path = Printf.sprintf ">home>f%02d" i; reg = 0 } |];
      K.Workload.sequential_write ~seg_reg:0 ~pages;
      K.Workload.random_touches ~seg_reg:0 ~pages ~count:touches ~write_pct
        ~seed:(Wl.mix seed i) ]

let touches_in prog =
  Array.fold_left
    (fun n -> function K.Workload.Touch _ -> n + 1 | _ -> n)
    0 prog

let setup ~write_pct ~touches (p : Wl.params) =
  let touches = if p.Wl.tiny then touches / 20 else touches in
  let config = { K.Kernel.default_config with K.Kernel.trace = p.Wl.kernel_trace } in
  let k = Probe.span "Kernel.boot" (fun () -> K.Kernel.boot config) in
  Probe.span "Kernel.mkdir" (fun () ->
      K.Kernel.mkdir k ~path:">home" ~acl:Wl.open_acl ~label:Wl.low);
  Probe.span "Kernel.create_file" (fun () ->
      for i = 0 to users - 1 do
        K.Kernel.create_file k ~path:(Printf.sprintf ">home>f%02d" i)
          ~acl:Wl.open_acl ~label:Wl.low
      done);
  let programs =
    Array.init users (program ~seed:p.Wl.seed ~write_pct ~touches)
  in
  let ops = Array.fold_left (fun n prog -> n + touches_in prog) 0 programs in
  let before = Wl.kernel_counts k in
  let t0 = K.Kernel.now k in
  let completed = ref false in
  let run () =
    Probe.span "Kernel.spawn" (fun () ->
        Array.iteri
          (fun i prog ->
            ignore (K.Kernel.spawn k ~pname:(Printf.sprintf "u%02d" i) prog))
          programs);
    completed :=
      Probe.span "Kernel.run_to_completion" (fun () ->
          K.Kernel.run_to_completion k)
  in
  let finish () =
    let sim_ns = K.Kernel.now k - t0 in
    let after = Wl.kernel_counts k in
    let up = K.Kernel.user_process k in
    let done_ = K.User_process.completed up in
    let problems =
      (if !completed && done_ = users then []
       else [ Printf.sprintf "%d of %d processes completed" done_ users ])
      @ Multics_check.Oracle.check k
      @ if Wl.frames_conserved k then [] else [ "page frames not conserved" ]
    in
    let sink = K.Kernel.obs k in
    let layers =
      Wl.kernel_layers ~ops (Wl.delta ~before ~after)
      @ [ ("pfm.page_read_p50_us", Wl.histo_pct sink "pfm.page_read" ~pct:50.0 /. 1e3);
          ("pfm.page_read_p95_us", Wl.histo_pct sink "pfm.page_read" ~pct:95.0 /. 1e3);
          ("sched.ready_wait_p95_us", Wl.histo_pct sink "sched.ready_wait" ~pct:95.0 /. 1e3);
          ( "obs.flight_dump_ms",
            let t = Probe.cpu_now () in
            ignore (Probe.span "Kernel.flight_dump" (fun () -> K.Kernel.flight_dump k));
            (Probe.cpu_now () -. t) *. 1e3 ) ]
    in
    Probe.span "Kernel.shutdown" (fun () -> K.Kernel.shutdown k);
    let disk = C.Shard.disk_hash_of_machine (K.Kernel.machine k) in
    { Wl.ops;
      failed = (users - done_) * (ops / users);
      sim_s = float_of_int sim_ns /. 1e9;
      digest = Printf.sprintf "clock=%d disk=%x" (K.Kernel.now k) disk;
      problems;
      layers;
      worker_words = 0.0 }
  in
  { Wl.run; finish }

let make ~name ~write_pct ~touches ~instances =
  { Wl.name; domains = 1; instances; other_domains = None; boot_config = K.Kernel.default_config;
    setup = setup ~write_pct ~touches }

let read = make ~name:"timeshare_read" ~write_pct:10 ~touches:3000 ~instances:1

(* Twelve short machines a round, not one long one: past a few thousand
   touches per process the write path's queueing drifts apart from one
   seed to the next (peak heap moved by 39% across seeds at 6000 touches,
   by 4% at 500 x 6), and the work per touch still differs between
   machines (allocation per touch by up to 13% at 500 x 6), so a round
   averages over many. *)
let write = make ~name:"timeshare_write" ~write_pct:70 ~touches:250 ~instances:12
