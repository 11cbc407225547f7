(** Instruction scheduling (Section 5.3).

    Linearizes the whole lowered graph at once by priority list
    scheduling — one topological order shared by every core and tile, so
    blocking communication cannot deadlock (5.3.3) — and fuses
    independent MVM operations mapped to different MVMUs of the same core
    into coalesced groups that execute as a single MVM instruction
    (5.3.2). Among ready nodes, MVMs and the nodes that feed them (input
    staging: gathers, inputs, constants) go first, so a core issues all
    its MVMs before it waits on another core's partial sum; ties keep
    reverse-postorder position, which consumes values soon after they
    are produced (5.3.1).

    A group stays open, accumulating members, until (a) a member's output
    is consumed, (b) another MVM needs an MVMU the group already uses,
    (c) the group spans all the core's MVMUs, or (d) the stream ends —
    realizing the paper's policy of fusing tiles of the same large MVM
    first and then nearby independent MVMs. Members are independent by
    construction: any dependence path between two MVMs passes through a
    consumer of the earlier one, which would have flushed the group. *)

type item =
  | Single of int  (** One non-MVM lowered node. *)
  | Mvm_group of int array
      (** Coalesced MVM nodes: same core, pairwise-distinct MVMUs, fired
          as one MVM instruction with a multi-bit mask. *)

type t = {
  items : item array;
  item_core : (int * int) array;  (** (tile, core) executing each item. *)
}

val build : coalesce:bool -> Lgraph.t -> Partition.t -> t

val num_mvm_instructions : t -> int
(** MVM instructions after coalescing (the Table 8 latency lever). *)

val max_group_size : t -> int
