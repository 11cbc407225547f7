(** Execution tracing.

    A trace records every retired core instruction with its cycle and
    location — the "detailed traces of execution" PUMAsim provides
    (Section 6.1). Traces answer the debugging questions the blocking
    execution model raises (what ran when, which unit was busy) and feed
    the per-unit occupancy summary. *)

type entry = {
  cycle : int;
  tile : int;
  core : int;
  instr : Puma_isa.Instr.t;
}

type t

val create : ?capacity:int -> unit -> t
(** A bounded trace keeping the most recent [capacity] entries (default
    65536). *)

val attach : t -> Node.t -> unit
(** Start recording the node's retired core instructions. The trace is a
    {!Node.probe} client: it takes the node's one probe slot, so
    attaching it replaces an attached {!Puma_profile.Profile} (and
    attaching a profile replaces it). *)

val detach : Node.t -> unit
(** Clear the node's probe slot, whichever observer holds it. *)

val length : t -> int
(** Entries currently retained. *)

val total_recorded : t -> int
(** All entries ever recorded (>= {!length} once the buffer wraps). *)

val entries : t -> entry list
(** Retained entries in retirement order. *)

val unit_counts : t -> (Puma_isa.Instr.unit_class * int) list
(** Retired-instruction {e counts} per execution unit over the retained
    window (number of instructions, not cycles — an instruction's issue
    latency does not weight its entry; for cycle-weighted occupancy use
    {!Puma_profile.Profile}). Units with no retired instructions are
    omitted. *)

val pp_entry : Puma_isa.Operand.layout -> Format.formatter -> entry -> unit

val dump : Puma_isa.Operand.layout -> t -> string
(** Render the retained window, one entry per line. *)
