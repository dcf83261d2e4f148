(** The simulated machine: CPUs, primary memory, disks, and the
    discrete-event clock that sequences everything.

    The machine knows nothing of processes or segments — those are the
    kernel's business.  It supplies the clock, the event queue through
    which I/O completions and dispatcher steps are interleaved, and
    accessors for the physical resources. *)

type tlb_totals = { tlb_hits : int; tlb_misses : int; tlb_flushes : int }

type t = {
  config : Hw_config.t;
  mem : Phys_mem.t;
  cpus : Cpu.t array;
  disk : Disk.t;
  events : Event_queue.t;
  mutable now : int;  (** simulated nanoseconds since boot *)
  mutable extra_cpus : Cpu.t list;
      (** Virtual CPUs registered by the kernel so descriptor changes
          can broadcast associative-memory clears to all of them. *)
  mutable retired_tlb : tlb_totals;
      (** Associative-memory counters of unregistered (reaped) virtual
          CPUs, folded in by {!unregister_cpu}; read them through
          {!tlb_totals}. *)
  mutable obs : Multics_obs.Sink.t;
      (** Observability sink; starts life {!Multics_obs.Sink.disabled}
          until the kernel installs its own with [set_obs]. *)
  mutable halted : bool;
      (** Power failed: no further events run; see {!halt}. *)
}

val create :
  ?disk_packs:int -> ?records_per_pack:int -> ?disk:Disk.t -> Hw_config.t -> t
(** Defaults: 4 packs of 1024 records, 2 ms record latency.  Passing
    [disk] boots a fresh machine over surviving packs — a new system
    incarnation. *)

val now : t -> int

val halt : t -> unit
(** Freeze the machine, as a power failure would: {!step} and {!run}
    refuse to pop further events.  The clock and disks survive — a new
    incarnation can be booted over the disk image. *)

val halted : t -> bool

val obs : t -> Multics_obs.Sink.t

val set_obs : t -> Multics_obs.Sink.t -> unit
(** Install the kernel's sink.  Purely observational: the sink never
    charges the meter or schedules events, so installing one cannot
    change simulated behaviour. *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** Run a handler [delay] simulated nanoseconds from now. *)

val schedule_at : t -> time:int -> (unit -> unit) -> unit

val step : t -> bool
(** Run the earliest pending event, advancing the clock to its time.
    Returns [false] when no events are pending. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** Drain the event queue, optionally stopping at simulated time [until]
    or after [max_events] events. *)

val register_cpu : t -> Cpu.t -> unit
(** Add a virtual CPU to the broadcast set for [flush_all_tlbs]. *)

val unregister_cpu : t -> Cpu.t -> unit
(** Remove a virtual CPU from the broadcast set (compared by physical
    identity).  A destroyed process must drop out, or the broadcast
    set — and with it the cost of every setfaults trailer walk —
    grows with every process the system has {e ever} run, which turns
    a long-lived utility quadratic. *)

val all_cpus : t -> Cpu.t list
(** Physical CPUs followed by registered virtual CPUs, in
    registration order. *)

val tlb_totals : t -> tlb_totals
(** Associative-memory counters summed over every CPU the machine has
    ever had: physical, registered virtual, and retired by
    {!unregister_cpu}.  Monotone: reaping a process never lowers them. *)

val flush_all_tlbs : t -> unit
(** Clear every CPU's SDW associative memory — the setfaults trailer
    walk's hardware broadcast. *)

val pp_stats : Format.formatter -> t -> unit
