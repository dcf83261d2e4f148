(** Cross-manager call tracing.

    Every call from one object manager into another is counted here, in
    one square matrix of call counts allocated at boot:
    row [from], column [to_].  Counting a call is one array increment.
    The kernel audit reads the non-zero cells as a
    {!Multics_depgraph.Conformance} view over the declared dependency
    graph (see {!Registry}).  This is the executable version of the
    paper's integrity audit: an undeclared call edge is exactly the kind
    of drift an auditor reading Kernel/Multics would have to hunt for by
    hand. *)

type t

val create : unit -> t

val call : t -> from:Registry.manager -> to_:Registry.manager -> unit
(** Count one call edge.  Self-calls are ignored. *)

val observed : t -> (string * string * int) list
(** Every edge called at least once, with its call count, sorted by
    [(from, to_)] name. *)

val audit : t -> declared:Multics_depgraph.Graph.t ->
  Multics_depgraph.Conformance.t
(** The conformance view of everything counted so far. *)

val to_trace_buf : t -> now:int -> buf:Multics_obs.Trace_buf.t -> unit
(** Append the call-edge census as [Counter] samples (category ["dep"])
    stamped [now] — the bridge that puts the dependency tracer's view
    into an exported timeline.  Writes to the caller's [buf] (not the
    live ring), so exporting repeatedly never pollutes the trace. *)
