(** Pre-decoded fast execution path for a core's instruction stream.

    {!decode} lowers every instruction into a closure with its operand
    views resolved once, so per-cycle cost drops to an array index plus
    an indirect call. Bit-identity with {!Puma_arch.Core.step} is the
    contract (same mutation order, the same {!Puma_arch.Cost} entry
    recorded through {!Puma_arch.Core.commit}, same RNG consumption);
    anything that cannot be resolved statically falls back to
    [Core.step]. Every closure returns a {!Puma_arch.Core} step code, so
    a decoded stream and the interpreter speak one protocol. *)

type code = (unit -> int) array
(** One closure per instruction, indexed by pc. Each call executes the
    instruction and returns its {!Puma_arch.Core} step code. *)

val decode : Puma_arch.Core.t -> Shared_mem.t -> code
(** Pre-decode the core's full instruction stream against its register
    spaces and the tile's shared memory. Pure over the immutable code
    array: decode once, reuse for every run. *)

val interpret : Puma_arch.Core.t -> Shared_mem.t -> code
(** The stream with every pc on {!Puma_arch.Core.step} (wired to the
    tile's shared memory): the node loop's reference mode, which keeps
    the interpreter the oracle the decoded stream is pinned to. *)

val step : Puma_arch.Core.t -> code -> int
(** Execute one instruction at the core's current pc and return its
    step code: the retired occupancy in cycles ([>= 0]), or
    {!Puma_arch.Core.r_halted} / a blocked code. *)
