(** A binary min-heap of values keyed by an [int] (a cycle time, in the
    simulator's uses). Entries with equal keys leave in an order fixed by
    the sequence of pushes and pops, so a deterministic caller gets a
    deterministic pop order. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> int -> 'a -> unit

val peek : 'a t -> (int * 'a) option
(** The entry with the smallest key, left in place. *)

val min_key : 'a t -> int
(** The smallest key, or [max_int] when the heap is empty. Allocates
    nothing. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest key. *)

val size : 'a t -> int
