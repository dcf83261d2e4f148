(* Printers and small accessors: the reporting surface the examples and
   benches rely on. *)

module K = Multics_kernel
module L = Multics_legacy
module Hw = Multics_hw
module Dg = Multics_depgraph
module Aim = Multics_aim

let check = Alcotest.check

let contains s affix = Astring.String.is_infix ~affix s

let test_fault_printers () =
  List.iter
    (fun (fault, needle) ->
      check Alcotest.bool needle true (contains (Hw.Fault.to_string fault) needle))
    [ (Hw.Fault.Missing_segment { segno = 3 }, "missing-segment");
      (Hw.Fault.Missing_page { segno = 1; pageno = 2; ptw_abs = 5 },
       "missing-page");
      (Hw.Fault.Quota_fault { segno = 1; pageno = 2 }, "quota-fault");
      (Hw.Fault.Locked_descriptor { segno = 1; pageno = 2; ptw_abs = 5 },
       "locked-descriptor");
      (Hw.Fault.Access_violation
         { segno = 1; access = Hw.Fault.Write; ring = 4 },
       "write");
      (Hw.Fault.Bounds_fault { segno = 1; wordno = 9 }, "bounds") ]

let test_hw_config_pp () =
  let s = Format.asprintf "%a" Hw.Hw_config.pp Hw.Hw_config.kernel_multics in
  check Alcotest.bool "mentions lock bit" true (contains s "lock-bit=true");
  let s = Format.asprintf "%a" Hw.Hw_config.pp Hw.Hw_config.legacy_multics in
  check Alcotest.bool "legacy has none" true (contains s "lock-bit=false")

let test_machine_stats_pp () =
  let machine = Hw.Machine.create Hw.Hw_config.legacy_multics in
  ignore (Hw.Phys_mem.read machine.Hw.Machine.mem 0);
  let s = Format.asprintf "%a" Hw.Machine.pp_stats machine in
  check Alcotest.bool "has read count" true (contains s "r=1")

let test_workload_printers () =
  List.iter
    (fun (action, needle) ->
      check Alcotest.bool needle true
        (contains (Format.asprintf "%a" K.Workload.pp_action action) needle))
    [ (K.Workload.Touch { seg_reg = 0; pageno = 1; offset = 2; write = true },
       "touch");
      (K.Workload.Initiate { path = ">a"; reg = 1 }, "initiate");
      (K.Workload.Set_acl { path = ">a"; user = "u"; read = true; write = false },
       "set-acl");
      (K.Workload.Await_ec { ec = "e"; value = 3 }, "await");
      (K.Workload.Terminate, "terminate") ]

let test_dep_kind_names () =
  List.iter
    (fun kind ->
      check Alcotest.bool "short is 1 char" true
        (String.length (Dg.Dep_kind.short kind) = 1))
    Dg.Dep_kind.all;
  check Alcotest.int "seven kinds" 7 (List.length Dg.Dep_kind.all)

let test_kernel_report () =
  let k = K.Kernel.boot K.Kernel.small_config in
  let s = Format.asprintf "%a" K.Kernel.pp_report k in
  List.iter
    (fun needle -> check Alcotest.bool needle true (contains s needle))
    [ "processes:"; "paging:"; "gates:"; "kernel time by manager" ]

(* [pp_report]'s exact bytes, recorded before the report was rebuilt to
   read every count from its owning module: paging under a cramped frame
   pool, read-ahead hits and low-water drops, pathname invalidations from
   ACL changes, a ready-wait SLO breach (one user VP, three processes),
   usage by three users and reaped processes' retired TLB counters. *)
let report_golden =
  {|Kernel/Multics after 74239 simulated us
  processes: 3 completed, 0 failed, 0 denials
  paging: 54 faults, 71 reads, 40 writes, 107 evictions (14 zero reclaims, 0 inline)
  segments: 6 activations, 3 deactivations, 0 relocations, 56 grows
  signals: 0 raised; full packs: 0
  disk i/o: 71 reads, 40 writes in 61 batches (mean 1.8, max 8), 95 merges, queue peak 8
  read-ahead: 17 issued, 17 hits, 50 dropped at low water
  vps: 305 dispatches, 3 switches, 0 wakeup-waiting saves
  gates: 42 defined (30 user-callable), 15 calls
  caches:
    sdw_am            208 hits        9 misses     26 invalidations (95.9% hit)
    pathname            2 hits        6 misses      2 invalidations (25.0% hit)
  latency histograms (simulated ns):
    gate.call                          15 samples  p50          0  p95          0  max          0
    vp.step                           305 samples  p50       8191  p95      65535  max      75662
    sched.ready_wait                    6 samples  p50      32767  p95   29380671  max   29380671
    fault.handle                       97 samples  p50          0  p95          0  max          0
    ec.wait:pfm.cleaner                51 samples  p50    1048575  p95    8272259  max    8272259
    io.queue_age                      111 samples  p50          0  p95          0  max          0
    io.batch                           61 samples  p50    1048575  p95    8388607  max    8800000
    ec.wait:upm.work                    1 samples  p50    8157847  p95    8157847  max    8157847
    pfm.page_read                      71 samples  p50    2097151  p95    2800000  max    2800000
    lock.hold:ptl                      71 samples  p50    2097151  p95    2800000  max    2800000
    ec.wait:pfm.transit                54 samples  p50    1048575  p95    2760269  max    2760269
  slo watchdogs (threshold in simulated ns):
    pfm.page_read    <= 40000000   ok
    lock.hold:ptl    <= 40000000   ok
    io.queue_age     <= 250000000  ok
    as.login         <= 30000000   ok
    sched.ready_wait <= 20000000   2 breaches, worst 29380671, last 29380671 at t=68295581 ctx=71
  usage by user:
    alice                  25 us cpu      0 ios
    bob                    40 us cpu     39 ios
    carol                  37 us cpu     32 ios
    page_frame_manager        0 us cpu     40 ios
  kernel time by manager:
    address_space_manager              46 us
    core_segment_manager                2 us
    directory_manager                 116 us
    disk_pack_manager              109264 us
    gate                              702 us
    known_segment_manager             208 us
    name_space                          5 us
    page_frame_manager               1521 us
    quota_cell_manager                170 us
    segment_manager                   292 us
    user_process_manager              103 us
|}

let test_kernel_report_golden () =
  let low = Aim.Label.system_low in
  let config =
    { K.Kernel.small_config with
      K.Kernel.hw = Hw.Hw_config.with_frames Hw.Hw_config.kernel_multics 48;
      core_frames = 24; read_ahead = 2; pt_words = 64; records_per_pack = 256;
      n_vps = 3; user_vps = 1 }
  in
  let k = K.Kernel.boot config in
  K.Kernel.mkdir k ~path:">home" ~acl:[ K.Acl.entry "*" K.Acl.rwe ]
    ~label:low;
  let as_user user = { K.Acl.user; project = "p" } in
  let writer =
    K.Workload.concat
      [ [| K.Workload.Create_file { dir = ">home"; name = "big" };
           K.Workload.Initiate { path = ">home>big"; reg = 0 } |];
        K.Workload.sequential_write ~seg_reg:0 ~pages:40 ]
  in
  ignore (K.Kernel.spawn k ~principal:(as_user "alice") ~pname:"w" writer);
  ignore (K.Kernel.run_to_completion k);
  let reader n =
    K.Workload.concat
      [ [| K.Workload.Initiate { path = ">home>big"; reg = 0 } |];
        K.Workload.sequential_read ~seg_reg:0 ~pages:40;
        [| K.Workload.Set_acl
             { path = ">home>big"; user = "u" ^ string_of_int n; read = true;
               write = false };
           K.Workload.Initiate { path = ">home>big"; reg = 1 } |] ]
  in
  ignore (K.Kernel.spawn k ~principal:(as_user "bob") ~pname:"r1" (reader 1));
  ignore (K.Kernel.spawn k ~principal:(as_user "carol") ~pname:"r2" (reader 2));
  ignore (K.Kernel.run_to_completion k);
  check Alcotest.string "report bytes" report_golden
    (Format.asprintf "%a" K.Kernel.pp_report k)

let test_legacy_report () =
  let s = L.Old_supervisor.boot L.Old_supervisor.small_config in
  let out = Format.asprintf "%a" L.Old_supervisor.pp_report s in
  List.iter
    (fun needle -> check Alcotest.bool needle true (contains out needle))
    [ "Legacy Multics"; "races:"; "quota:" ]

let test_salvager_printer () =
  let f =
    { K.Salvager.f_kind = K.Salvager.Orphan_vtoc; f_detail = "uid 9";
      f_repairable = false }
  in
  let s = Format.asprintf "%a" K.Salvager.pp_finding f in
  check Alcotest.bool "kind" true (contains s "orphan-vtoc");
  check Alcotest.bool "operator note" true (contains s "operator")

let test_label_printer () =
  let l = Aim.Label.make Aim.Level.secret (Aim.Compartment.of_list [ 1; 3 ]) in
  let s = Aim.Label.to_string l in
  check Alcotest.bool "level" true (contains s "secret");
  check Alcotest.bool "compartments" true (contains s "{1,3}")

let test_acl_printer () =
  let s =
    Format.asprintf "%a" K.Acl.pp
      [ K.Acl.entry "alice" K.Acl.rw; K.Acl.entry "*" K.Acl.r ]
  in
  check Alcotest.bool "alice rw" true (contains s "alice.*:rw-");
  check Alcotest.bool "star r" true (contains s "*.*:r--")

let test_uid_printer () =
  let fresh = K.Ids.generator () in
  let real = fresh () in
  check Alcotest.bool "real" true
    (contains (Format.asprintf "%a" K.Ids.pp real) "uid1");
  let myth = K.Ids.mythical ~parent:real ~name:"x" in
  check Alcotest.bool "mythical" true
    (contains (Format.asprintf "%a" K.Ids.pp myth) "mythical")

let tests =
  [ Alcotest.test_case "fault printers" `Quick test_fault_printers;
    Alcotest.test_case "hw config pp" `Quick test_hw_config_pp;
    Alcotest.test_case "machine stats pp" `Quick test_machine_stats_pp;
    Alcotest.test_case "workload printers" `Quick test_workload_printers;
    Alcotest.test_case "dep kind names" `Quick test_dep_kind_names;
    Alcotest.test_case "kernel report" `Quick test_kernel_report;
    Alcotest.test_case "kernel report golden bytes" `Quick
      test_kernel_report_golden;
    Alcotest.test_case "legacy report" `Quick test_legacy_report;
    Alcotest.test_case "salvager printer" `Quick test_salvager_printer;
    Alcotest.test_case "label printer" `Quick test_label_printer;
    Alcotest.test_case "acl printer" `Quick test_acl_printer;
    Alcotest.test_case "uid printer" `Quick test_uid_printer ]
