(** The PUMA core: three-stage in-order pipeline executing the core ISA
    against the MVMUs, VFU, SFU, register file and the tile's shared
    memory (Figure 1).

    The simulator drives a core with {!step}; each call executes (at most)
    one instruction and returns a step code: the retired instruction's
    occupancy in cycles, or one of the negative codes below. The same
    codes are returned by the pre-decoded fast path
    ({!Puma_tile.Fastexec}) and the tile control unit
    ({!Puma_tile.Tile.step_tcu}), so the node's one scheduler loop reads
    every entity alike. Loads and stores interact with the tile shared
    memory through a {!mem_iface}, whose operations may refuse (return
    [None] / [false]) to model the blocking valid/count synchronization
    of Section 4.1.1; a refused access leaves the core blocked with its
    PC unchanged. *)

type mem_iface = {
  load : addr:int -> width:int -> int array option;
      (** Read [width] consecutive words; [None] if any word is not yet
          valid (consumer blocks). A successful load decrements consumer
          counts. *)
  store : addr:int -> values:int array -> count:int -> bool;
      (** Write words with the given consumer count; [false] if any
          target word is still valid with pending consumers (producer
          blocks). *)
}

(** Why an entity could not advance this cycle — the stall taxonomy used
    by the profiling layer ({!Puma_profile.Profile}). Every blocking point
    of the execution model maps to exactly one class. *)
type stall =
  | Stall_smem_read
      (** Consumer waiting on a shared-memory word that is not yet valid
          (load, or a send whose operand has not been produced). *)
  | Stall_smem_write
      (** Producer waiting on a shared-memory word still valid with
          pending consumers (store, or a receive whose destination has
          not drained). *)
  | Stall_recv_fifo
      (** Receive waiting on an empty receive-buffer FIFO (the message
          has not arrived). *)

val stall_name : stall -> string
val stall_index : stall -> int
val all_stalls : stall list
val num_stalls : int

(** {2 Step codes}

    A step returns an [int]: [>= 0] is the occupancy in cycles of the
    instruction it retired; a negative code says why nothing retired. A
    blocked step leaves the PC unchanged and has no effect. *)

val r_halted : int
val r_blocked_read : int
val r_blocked_write : int
val r_blocked_recv : int
(** Halted (executed [Halt] or ran off the end of the stream), and
    blocked on {!Stall_smem_read}, {!Stall_smem_write} and
    {!Stall_recv_fifo}. *)

val stall_of_code : int -> stall
(** The stall of a blocked code; [Invalid_argument] on any other code. *)

type t

val create :
  Puma_hwmodel.Config.t ->
  ?seed:int ->
  energy:Puma_hwmodel.Energy.t ->
  Puma_isa.Instr.t array ->
  t
(** A core with unprogrammed MVMUs executing the given stream. [seed]
    feeds the Rand vector op. *)

val config : t -> Puma_hwmodel.Config.t
val regfile : t -> Regfile.t

val sreg : t -> int -> int
(** Current value of scalar register [s] (for inspection). *)

val pc : t -> int
val halted : t -> bool
val retired : t -> int
(** Number of retired instructions. *)

val busy_cycles : t -> int
(** Total cycles spent executing retired instructions. *)

val program_mvmu :
  t ->
  index:int ->
  ?rng:Puma_util.Rng.t ->
  ?fault:Puma_xbar.Fault.spec ->
  string ->
  unit
(** Configuration-time crossbar write of a weight image; [fault] injects
    realized device/circuit faults (see {!Puma_xbar.Mvmu.program}). *)

val step : t -> mem:mem_iface -> int
(** Execute the next instruction and return its step code; a retired one
    is charged its {!Cost} entry. Raises [Invalid_argument] on a tile instruction (send/receive)
    in a core stream. *)

val reset : t -> unit
(** Rewind PC and halted state (register contents are preserved). *)

(** {2 Fast-path internals}

    Accessors and the retirement step for the pre-decoded executor
    ({!Puma_tile.Fastexec}). They expose mutable state; any consumer must
    preserve {!step}'s observable semantics bit for bit (the contract
    checked by the fast-path differential suite). *)

val layout : t -> Puma_isa.Operand.layout
val code : t -> Puma_isa.Instr.t array
val sregs : t -> int array
(** The scalar register array itself (mutations are live). *)

val mvmus : t -> Puma_xbar.Mvmu.t array
val rng : t -> Puma_util.Rng.t

val force_halt : t -> unit
(** Latch the halted flag (as executing [Halt] or running off the end
    of the stream does). *)

val commit : t -> target:int -> int
(** Retire the instruction at the current pc: charge its {!Cost} entry,
    set the pc to [target] and count it in {!retired} and {!busy_cycles}.
    Returns its occupancy in cycles, the step code of a retire. The pc
    must be in range. *)
