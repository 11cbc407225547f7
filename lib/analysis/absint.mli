(** Generic worklist abstract interpreter over {!Cfg}.

    A dataflow solver parametric in a finite-height abstract domain:
    chaotic iteration over basic blocks to a fixpoint. The
    register-dataflow passes ({!Regflow}) are its clients; {!Resource}
    reads their liveness through {!Bset}. *)

(** Compact bitset over the combined register space (one bit per vector
    register word, then one per scalar register). *)
module Bset : sig
  type t

  val create : int -> t
  (** [create n] is the empty set over a universe of [n] elements. *)

  val copy : t -> t
  val equal : t -> t -> bool
  val get : t -> int -> bool
  val set : t -> int -> unit
  val clear : t -> int -> unit
  val inter_into : t -> t -> unit
  val union_into : t -> t -> unit
end

type direction = Forward | Backward

module type DOMAIN = sig
  type state

  val copy : state -> state
  val equal : state -> state -> bool

  val join : state -> state -> state
  (** Least upper bound; may mutate and return its first argument. *)
end

module Make (D : DOMAIN) : sig
  val solve :
    ?direction:direction ->
    entry:(unit -> D.state) ->
    transfer:(pc:int -> D.state -> D.state) ->
    Cfg.t ->
    D.state option array
  (** Fixpoint boundary state per block: the block's entry state under
      [Forward], the state at the block's end (join over successors)
      under [Backward]. [None] for blocks no contribution reaches
      (unreachable code). [entry] seeds the stream entry block under
      [Forward]; under [Backward] every block is seeded (exit edges are
      implicit in the CFG), so the boundary state must be neutral for
      [join] (true for the union-style backward domains used here).
      [transfer ~pc s] is the abstract effect of the instruction at
      [pc]; it may mutate and return [s] (the solver always passes a
      private copy). Blocks are visited in order (reverse order under
      [Backward]); a CFG with no back edge is solved in that one pass,
      with each instruction's transfer run once. *)
end
