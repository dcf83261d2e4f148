(** The declared dependency structure of this kernel implementation.

    Every manager has one identity, owned here: a small-int handle
    ({!manager}) and a name ({!name}).  Managers pass their handle as
    [~caller] on every cross-manager call, and the {!Tracer} counts
    calls in a matrix indexed by handle; the meter, the reports and the
    dependency graph use the name.  The declared graph is the one the
    runtime conformance audit checks observed calls against.  It is the
    implementation's own (it differs from the paper's Figure 4 in
    merging the segment and active-segment managers and in adding the
    gate layer on top); the test suite proves it loop-free.

    Kernel/Multics is coded entirely in the higher-level language (the
    paper's "exclusive use of PL/I"), so every manager charges the meter
    at [Cost.Pl1]. *)

type manager = private int
(** A dense index into {!names}. *)

val core_segment_manager : manager
val virtual_processor_manager : manager
val disk_pack_manager : manager
val page_frame_manager : manager
val quota_cell_manager : manager
val segment_manager : manager
val known_segment_manager : manager
val address_space_manager : manager
val user_process_manager : manager
val directory_manager : manager
val gate : manager
val name_space : manager

val invariants : manager
val salvager : manager
(** The certification apparatus (paper box 6): the invariant checker and
    the salvager read manager state from outside the kernel. *)

val names : string array
(** Every handle's name, indexed by handle.  Read-only by convention. *)

val name : manager -> string

val declared_graph : unit -> Multics_depgraph.Graph.t
