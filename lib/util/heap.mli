(** A binary min-heap of values keyed by an [int] (a cycle time, in the
    simulator's uses).

    Tie order is part of the contract: entries with equal keys leave in
    the order of a binary heap that sifts with strict comparisons (a
    parent moves down past a smaller child only, the left child wins a
    tie between children). That order is a function of the sequence of
    pushes and pops alone, so a deterministic caller gets a
    deterministic pop order; [Schedule] (byte-identical programs) and
    [Network] (bit-identical runs) rely on it. Neither {!push} (between
    growths) nor {!pop_value} allocates. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> int -> 'a -> unit

val min_key : 'a t -> int
(** The smallest key, or [max_int] when the heap is empty. *)

val pop_value : 'a t -> 'a
(** Remove the entry with the smallest key and return its value.
    Raises [Invalid_argument] when the heap is empty. *)

val size : 'a t -> int
