(** Pre-decoded fast execution path for a core's instruction stream.

    {!decode} lowers every instruction into a closure with its operand
    views resolved once, so per-cycle cost drops to an array index plus
    an indirect call. Bit-identity with {!Puma_arch.Core.step} is the
    contract (same mutation order, the same {!Puma_arch.Cost} entry
    recorded through {!Puma_arch.Core.commit}, same RNG consumption);
    anything that cannot be resolved statically falls back to
    [Core.step]. *)

type code = (unit -> int) array
(** One closure per instruction, indexed by pc. Each call executes the
    instruction and returns a step code. *)

val r_halted : int
(** Step code: the core is (now) halted. *)

val r_blocked_read : int
(** Step code: blocked reading shared memory (operand not yet valid). *)

val r_blocked_write : int
(** Step code: blocked writing shared memory (pending consumers). *)

val decode : Puma_arch.Core.t -> Shared_mem.t -> code
(** Pre-decode the core's full instruction stream against its register
    spaces and the tile's shared memory. Pure over the immutable code
    array: decode once, reuse for every run. *)

val step : Puma_arch.Core.t -> code -> int
(** Execute one instruction at the core's current pc. Returns the retired
    occupancy in cycles ([>= 0]) or one of the negative step codes. *)
