module Dg = Multics_depgraph

type manager = int

let names =
  [| "core_segment_manager"; "virtual_processor_manager"; "disk_pack_manager";
     "page_frame_manager"; "quota_cell_manager"; "segment_manager";
     "known_segment_manager"; "address_space_manager"; "user_process_manager";
     "directory_manager"; "gate"; "name_space"; "invariants"; "salvager" |]

let core_segment_manager = 0
let virtual_processor_manager = 1
let disk_pack_manager = 2
let page_frame_manager = 3
let quota_cell_manager = 4
let segment_manager = 5
let known_segment_manager = 6
let address_space_manager = 7
let user_process_manager = 8
let directory_manager = 9
let gate = 10
let name_space = 11
let invariants = 12
let salvager = 13
let name m = names.(m)

(* All kernel managers, bottom-up. *)
let kernel_managers = List.init (gate + 1) Fun.id

let declared_graph () =
  let g = Dg.Graph.create ~name:"Kernel/Multics implementation" () in
  let edge from to_ kind =
    Dg.Graph.add_edge g ~from:(name from) ~to_:(name to_) kind
  in
  let open Dg.Dep_kind in
  (* Structural dependencies. *)
  edge virtual_processor_manager core_segment_manager Map;
  edge disk_pack_manager core_segment_manager Map;
  edge page_frame_manager core_segment_manager Map;
  edge quota_cell_manager core_segment_manager Map;
  edge segment_manager core_segment_manager Map;
  edge address_space_manager core_segment_manager Map;
  (* Component / call dependencies, bottom-up. *)
  edge page_frame_manager disk_pack_manager Component;
  edge page_frame_manager virtual_processor_manager Explicit_call;
  (* "the page frame manager calling the wait primitive of the virtual
     processor manager" *)
  edge page_frame_manager quota_cell_manager Explicit_call;
  (* the page-removal algorithm credits the quota cell when it reclaims
     a page of zeros *)
  edge quota_cell_manager disk_pack_manager Component;
  edge segment_manager disk_pack_manager Component;
  edge segment_manager page_frame_manager Component;
  edge segment_manager quota_cell_manager Explicit_call;
  edge known_segment_manager segment_manager Component;
  edge address_space_manager known_segment_manager Component;
  edge address_space_manager segment_manager Component;
  edge user_process_manager address_space_manager Component;
  edge user_process_manager known_segment_manager Component;
  edge user_process_manager segment_manager Component;
  edge user_process_manager virtual_processor_manager Explicit_call;
  edge directory_manager segment_manager Component;
  edge directory_manager segment_manager Map;
  edge directory_manager quota_cell_manager Component;
  edge directory_manager known_segment_manager Explicit_call;
  (* The gate layer dispatches user calls, faults and upward signals
     into every manager. *)
  List.iter (fun m -> if m <> gate then edge gate m Explicit_call)
    kernel_managers;
  (* The user-domain name manager reaches the kernel only through
     gates. *)
  edge name_space gate Explicit_call;
  edge invariants disk_pack_manager Explicit_call;
  edge salvager disk_pack_manager Explicit_call;
  edge salvager directory_manager Explicit_call;
  edge salvager quota_cell_manager Explicit_call;
  edge salvager segment_manager Explicit_call;
  (* Blanket structural rules: programs and address spaces of kernel
     modules live in core segments; every module above the virtual
     processor manager is interpreted by it. *)
  List.iter
    (fun m ->
      if m <> core_segment_manager then begin
        edge m core_segment_manager Address_space;
        edge m core_segment_manager Program;
        if m <> virtual_processor_manager then
          edge m virtual_processor_manager Interpreter
      end)
    kernel_managers;
  g
