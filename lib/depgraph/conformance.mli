(** Runtime dependency conformance.

    The kernel's managers declare their dependencies up front (the
    design); the kernel's tracer counts actual cross-manager calls as
    they happen (the implementation).  A conformance value is a view of
    the two: every observed call edge must be covered by a declared
    dependency, or the implementation has drifted from the auditable
    structure — the failure mode the paper's whole methodology exists to
    prevent. *)

type t

val create : declared:Graph.t -> observed:(string * string * int) list -> t
(** [observed] lists distinct call edges [(from, to_, count)], sorted by
    [(from, to_)]. *)

val observed : t -> (string * string * int) list

type violation = { v_from : string; v_to : string; v_count : int }

val violations : t -> violation list
(** Observed edges not covered by any declared dependency. *)

val unexercised : t -> (string * string) list
(** Declared edges never observed (informational; map/program/address
    space/interpreter dependencies are structural and are not expected
    to appear as calls, so only [Component] and [Explicit_call]
    declarations are reported here). *)

val conforms : t -> bool
val report : Format.formatter -> t -> unit
