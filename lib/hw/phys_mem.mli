(** Primary memory.

    36-bit words organised as page frames.  Everything the processor
    can see — including page tables and descriptor segments — lives
    here; higher layers that keep "maps" keep them in these words,
    which is what makes the paper's map dependencies real in this
    reproduction.

    A frame's storage is allocated on its first write.  Until then the
    frame reads as zeros from one shared frame, so booting a memory
    costs nothing for the frames it never touches, and
    {!frame_is_zero} answers in O(1) for them. *)

type t

val create : frames:int -> t
(** Fresh memory of [frames] page frames, all reading zero; none is
    allocated yet. *)

val frames : t -> int
val words : t -> int

val read : t -> Addr.abs -> Word.t
(** Raises [Invalid_argument] outside physical memory. *)

val write : t -> Addr.abs -> Word.t -> unit

val read_frame : t -> int -> Word.t array
(** A fresh copy of frame [n]'s 1024 words; mutating it never changes
    the memory. *)

val write_frame : t -> int -> Word.t array -> unit
(** Overwrite frame [n]; the array must have [Addr.page_size] words. *)

val zero_frame : t -> int -> unit

val frame_is_zero : t -> int -> bool
(** True when every word of the frame is zero — the test the paper's
    page-removal algorithm performs before writing a page to disk.
    O(1) for a frame never written. *)

val reads : t -> int
val writes : t -> int
(** Access counters, for the cost model and tests. *)
