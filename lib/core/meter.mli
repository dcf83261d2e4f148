(** Accumulates the simulated cost of kernel work performed during one
    dispatch step, and per-manager totals for the benches.

    The event-driven machine advances the clock between steps; kernel
    code that runs "inline" during a step charges the meter, and the
    dispatcher folds the accumulated charge into the step's duration.

    The meter records simulated cost and nothing else.  Cache counters
    belong to the caches, per-user usage to the observability sink
    ({!Multics_obs.Sink.by_user}); {!Kernel} reads each from its owner. *)

type t

val create : unit -> t

val charge : t -> manager:string -> Cost.language -> int -> unit
(** Add [Cost.scale lang ns] to the pending step cost and to the
    manager's total. *)

val charge_raw : t -> manager:string -> int -> unit
(** Charge without language scaling (e.g. pure waiting). *)

val charge_async : t -> manager:string -> int -> unit
(** Record time spent by autonomous hardware (a disk arm sweeping a
    batch) in the totals WITHOUT adding to the pending step cost.
    Batch completions run inside event handlers, not dispatch steps;
    folding their latency into whichever virtual processor happens to
    run next would misattribute it. *)

val take_pending : t -> int
(** Return and reset the cost accumulated since the last call. *)

val pending : t -> int
val total : t -> int
val by_manager : t -> (string * int) list
(** Sorted by manager name. *)

type snapshot = {
  snap_total : int;
  snap_managers : (string * int) list;  (** sorted by manager name *)
}

val snapshot : t -> snapshot
(** Freeze the totals, for later per-manager delta assertions. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-manager deltas between two snapshots; managers whose totals did
    not move are omitted. *)
