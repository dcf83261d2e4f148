(** Cross-manager call tracing.

    Every call from one object manager into another is recorded here;
    the kernel audit compares the observed edges against the declared
    dependency graph (see {!Registry}).  This is the executable version
    of the paper's integrity audit: an undeclared call edge is exactly
    the kind of drift an auditor reading Kernel/Multics would have to
    hunt for by hand.

    The tracer records call edges and nothing else.  Cache events are
    counted by the module that owns each cache: the per-CPU associative
    memories, {!Name_space}'s pathname cache and the disk scheduler. *)

type t

val create : unit -> t

val call : t -> from:string -> to_:string -> unit
(** Record one call edge. *)

val observed : t -> (string * string * int) list
(** Every edge with its call count, sorted by [(from, to_)]. *)

val audit : t -> declared:Multics_depgraph.Graph.t ->
  Multics_depgraph.Conformance.t
(** Build a conformance report from everything recorded so far. *)

val to_trace_buf : t -> now:int -> buf:Multics_obs.Trace_buf.t -> unit
(** Append the call-edge census as [Counter] samples (category ["dep"])
    stamped [now] — the bridge that puts the dependency tracer's view
    into an exported timeline.  Writes to the caller's [buf] (not the
    live ring), so exporting repeatedly never pollutes the trace. *)
