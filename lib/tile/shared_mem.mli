(** Tile shared memory with the inter-core synchronization attribute
    buffer (Section 4.1.1, Figure 6): the one implementation of its
    blocking rule, which the simulator's tiles and [Puma_analysis.Equiv]'s
    symbolic run both execute.

    Every word carries one attribute, its {!state}: [-1] invalid, [0]
    sticky, [n > 0] valid with [n] reads left. A counted write
    ([count > 0]) publishes a value for exactly [count] reads: readers
    block until the word is valid, each successful read decrements the
    count, and the word invalidates when it reaches zero, unblocking the
    next producer. A write with [count = 0] is a plain ("sticky") write
    used for unsynchronized data (spills, host inputs): it always
    succeeds and reads do not consume it.

    Every access raises [Invalid_argument] when [[addr, addr + width)]
    leaves the memory. *)

type t

val create : words:int -> t
val words : t -> int

val state : t -> addr:int -> int
(** The word's attribute: [-1] invalid, [0] sticky, [n > 0] reads left. *)

val read_blocker : t -> addr:int -> width:int -> int
(** The first word of the range that blocks a read (it is invalid), or
    [-1]. *)

val write_blocker : t -> addr:int -> width:int -> int
(** The first word of the range that blocks a counted write (it still
    has reads left), or [-1]. A write with [count = 0] never blocks. *)

val read : t -> addr:int -> width:int -> int array option
(** [None] if any requested word is invalid (reader must block). On
    success, counted words are consumed as described above. *)

val read_into : t -> addr:int -> width:int -> dst:int array -> dst_pos:int -> bool
(** Allocation-free {!read} for the fast path: on success copies the
    words into [dst] at [dst_pos] and consumes counted words exactly as
    {!read} does; on failure ([false]) touches nothing. *)

val peek : t -> addr:int -> width:int -> int array option
(** Like {!read} but never consumes (host-side inspection). *)

val write : t -> addr:int -> values:int array -> count:int -> bool
(** [false] if any target word is still valid with pending consumers
    (writer must block). [count] applies to every written word. *)

val write_from :
  t -> addr:int -> src:int array -> src_pos:int -> width:int -> count:int -> bool
(** Allocation-free {!write} for the fast path: takes the [width] values
    from [src] at [src_pos] with the same blocking rule as {!write}. *)

val host_write : t -> addr:int -> values:int array -> unit
(** Unconditional sticky write (network input injection). *)

val generation : t -> int
(** Monotonic counter bumped by every successful (state-mutating) read or
    write. A blocked access retried while the generation is unchanged is
    guaranteed to block again with no side effects, so schedulers may park
    blocked entities until it moves. *)
