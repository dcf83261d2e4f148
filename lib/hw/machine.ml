type tlb_totals = { tlb_hits : int; tlb_misses : int; tlb_flushes : int }

type t = {
  config : Hw_config.t;
  mem : Phys_mem.t;
  cpus : Cpu.t array;
  disk : Disk.t;
  events : Event_queue.t;
  mutable now : int;
  mutable extra_cpus : Cpu.t list;
  mutable retired_tlb : tlb_totals;
  mutable obs : Multics_obs.Sink.t;
  mutable halted : bool;
}

let create ?(disk_packs = 4) ?(records_per_pack = 1024) ?disk
    (config : Hw_config.t) =
  { config;
    mem = Phys_mem.create ~frames:config.Hw_config.memory_frames;
    cpus = Array.init config.Hw_config.n_cpus (fun id -> Cpu.create ~id);
    disk =
      (match disk with
      | Some d -> d
      | None ->
          Disk.create ~packs:disk_packs ~records_per_pack
            ~read_latency_ns:2_000_000);
    events = Event_queue.create ();
    now = 0;
    extra_cpus = [];
    retired_tlb = { tlb_hits = 0; tlb_misses = 0; tlb_flushes = 0 };
    obs = Multics_obs.Sink.disabled ();
    halted = false }

let now t = t.now
let halt t = t.halted <- true
let halted t = t.halted

let obs t = t.obs
let set_obs t sink = t.obs <- sink

let register_cpu t cpu = t.extra_cpus <- cpu :: t.extra_cpus

let add_tlb acc (cpu : Cpu.t) =
  { tlb_hits = acc.tlb_hits + Assoc_mem.hits cpu.Cpu.tlb;
    tlb_misses = acc.tlb_misses + Assoc_mem.misses cpu.Cpu.tlb;
    tlb_flushes = acc.tlb_flushes + Assoc_mem.flushes cpu.Cpu.tlb }

(* Physical identity, not [=]: a vCPU holds cyclic/mutable state.  Its
   associative-memory counters fold into the retired totals so the
   machine-wide cache statistics survive the departure. *)
let unregister_cpu t cpu =
  if List.exists (fun c -> c == cpu) t.extra_cpus then begin
    t.retired_tlb <- add_tlb t.retired_tlb cpu;
    t.extra_cpus <- List.filter (fun c -> not (c == cpu)) t.extra_cpus
  end

let all_cpus t = Array.to_list t.cpus @ List.rev t.extra_cpus

let tlb_totals t = List.fold_left add_tlb t.retired_tlb (all_cpus t)

(* The setfaults trailer walk: changing a descriptor in place must
   broadcast an associative-memory clear to every processor, physical
   or virtual, or a stale SDW could translate to freed storage. *)
let flush_all_tlbs t =
  List.iter (fun (cpu : Cpu.t) -> Assoc_mem.flush cpu.Cpu.tlb) (all_cpus t)

let schedule t ~delay handler =
  assert (delay >= 0);
  Event_queue.add t.events ~time:(t.now + delay) handler

let schedule_at t ~time handler =
  assert (time >= t.now);
  Event_queue.add t.events ~time handler

let step t =
  if t.halted then false
  else
  match Event_queue.pop t.events with
  | None -> false
  | Some (time, handler) ->
      t.now <- max t.now time;
      Multics_obs.Sink.count t.obs "hw.event_pop";
      handler ();
      true

let run ?until ?max_events t =
  let continue count =
    (match max_events with Some m -> count < m | None -> true)
    &&
    match (until, Event_queue.next_time t.events) with
    | _, None -> false
    | Some limit, Some next -> next <= limit
    | None, Some _ -> true
  in
  let rec loop count = if continue count && step t then loop (count + 1) in
  loop 0

let pp_stats ppf t =
  Format.fprintf ppf "t=%dns mem(r=%d w=%d) disk-io=%d" t.now
    (Phys_mem.reads t.mem) (Phys_mem.writes t.mem) (Disk.io_count t.disk);
  Array.iter
    (fun (cpu : Cpu.t) ->
      Format.fprintf ppf " cpu%d(xl=%d faults=%d)" cpu.Cpu.id
        cpu.Cpu.translations cpu.Cpu.faults)
    t.cpus
