(* Frame [n] is [frame_tbl.(n)].  A frame never written points at the
   one shared [zero] frame; the first [write] or [write_frame] gives it
   its own array.  [zero] is never handed out or written, so it stays
   all zeros for every memory in every domain. *)
type t = {
  frame_tbl : int array array;
  n_frames : int;
  n_words : int;
  mutable reads : int;
  mutable writes : int;
}

let zero = Array.make Addr.page_size 0

(* An address splits into frame and offset by shift and mask. *)
let page_bits = 10
let () = assert (1 lsl page_bits = Addr.page_size)
let page_mask = Addr.page_size - 1

let create ~frames =
  assert (frames > 0);
  { frame_tbl = Array.make frames zero; n_frames = frames;
    n_words = frames * Addr.page_size; reads = 0; writes = 0 }

let frames t = t.n_frames
let words t = t.n_words

(* Frame [n]'s first write gives it its own array.  Callers test for
   [zero] inline and call this only then, which keeps [write] lean. *)
let own t n =
  let f = Array.make Addr.page_size 0 in
  t.frame_tbl.(n) <- f;
  f

let read t a =
  if a < 0 || a >= t.n_words then
    invalid_arg (Printf.sprintf "Phys_mem.read: address %d out of range" a);
  t.reads <- t.reads + 1;
  t.frame_tbl.(a lsr page_bits).(a land page_mask)

let write t a w =
  if a < 0 || a >= t.n_words then
    invalid_arg (Printf.sprintf "Phys_mem.write: address %d out of range" a);
  t.writes <- t.writes + 1;
  let n = a lsr page_bits in
  let f = t.frame_tbl.(n) in
  (if f != zero then f else own t n).(a land page_mask) <- Word.of_int w

let read_frame t n =
  assert (n >= 0 && n < t.n_frames);
  Array.copy t.frame_tbl.(n)

let write_frame t n img =
  assert (n >= 0 && n < t.n_frames);
  assert (Array.length img = Addr.page_size);
  let f = t.frame_tbl.(n) in
  Array.blit img 0 (if f != zero then f else own t n) 0 Addr.page_size

let zero_frame t n =
  assert (n >= 0 && n < t.n_frames);
  let f = t.frame_tbl.(n) in
  if f != zero then Array.fill f 0 Addr.page_size 0

let frame_is_zero t n =
  assert (n >= 0 && n < t.n_frames);
  let f = t.frame_tbl.(n) in
  let rec loop i = i >= Addr.page_size || (f.(i) = 0 && loop (i + 1)) in
  f == zero || loop 0

let reads t = t.reads
let writes t = t.writes
