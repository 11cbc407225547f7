(** Instruction scheduling (Section 5.3).

    Linearizes the whole lowered graph at once by priority list
    scheduling — one topological order shared by every core and tile, so
    blocking communication cannot deadlock (5.3.3) — and fuses
    independent MVM operations mapped to different MVMUs of the same core
    into coalesced groups that execute as a single MVM instruction
    (5.3.2).

    Among ready nodes, the one with the largest bottom level goes first:
    the longest path, weighted by {!critical_path_cycles}'s latencies,
    from the node to a sink. Work on the critical path starts early, so
    cores overlap their MVMs with each other's reductions. Ties keep
    reverse-postorder position, which consumes values soon after they are
    produced (5.3.1). Each core's register file guards the priority: a
    node issues only if its result and its operands not yet resident on
    its core fit beside the values there still awaiting a use, sized and
    reused in place as {!Regalloc} does. A node that does not fit waits
    until its core frees registers; when no ready node fits, the lowest
    unscheduled reverse-postorder node goes next (it is always ready).

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

val critical_path_cycles : Puma_hwmodel.Config.t -> Lgraph.t -> int
(** The longest path through the lowered graph, each node weighted by the
    fewest cycles the simulator spends on it: [Latency.mvm] for an MVM,
    [Latency.alu] over its length for a vector operation, nothing for
    inputs, constants, gathers and outputs. A static lower bound on the
    simulated cycles of one inference. *)

val num_mvm_instructions : t -> int
(** MVM instructions after coalescing (the Table 8 latency lever). *)

val max_group_size : t -> int
