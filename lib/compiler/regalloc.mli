(** Per-core register allocation with spilling (Section 5.4).

    Values (lowered-node segments) occupy contiguous ranges of the core's
    general-purpose register file. Allocation happens on the fly during
    code generation: defining a value claims a range (first-fit over a
    free list); when the file is full the resident value with the farthest
    next use is evicted — spilled to a sticky shared-memory slot unless a
    valid copy already exists — and reloaded on demand. Values are
    immutable, so a spill slot written once stays valid for all later
    reloads.

    A value can also enter a core from shared memory (a remote value's
    counted slot, or a sticky input/constant slot): [add_external] seeds
    its location so the first use emits the load. Counted slots are
    one-shot — consumed by the first load — while sticky slots allow
    unlimited reloads.

    The allocator reports the Table 8 register-pressure metric:
    the fraction of operand accesses served from spilled registers. *)

type emit = Puma_isa.Instr.t -> unit

type t

val create :
  layout:Puma_isa.Operand.layout ->
  alloc_smem:(int -> int) ->
  emit:emit ->
  t
(** [alloc_smem len] must return a fresh sticky spill slot address. *)

val reg_words : int -> int
(** Registers a value of [len] words occupies: [len] rounded up to a
    power of two. An element-wise result may take over a dying operand's
    range when its own size is at most the operand's ({!try_inplace}). *)

val set_next_uses : t -> id:int -> positions:int list -> unit
(** Register the (ascending) code positions at which value [id] is used on
    this core. Must be called before the value is defined or used. *)

val define : t -> id:int -> len:int -> pos:int -> exclude:int list -> int
(** Claim a register range for a newly produced value and return its flat
    base register. [exclude] lists value ids that must not be evicted
    (operands of the producing instruction). *)

val add_external : t -> id:int -> len:int -> addr:int -> persistent:bool -> unit
(** Declare that [id] is available in shared memory at [addr];
    [persistent] distinguishes sticky slots from one-shot counted slots. *)

val try_inplace : t -> src:int -> dst:int -> len:int -> pos:int -> int option
(** Try to hand a dying source operand's register range to the value an
    element-wise instruction is about to define (in-place update: the VFU
    reads each element before overwriting it). Succeeds when [src] is
    resident, has no use after [pos], and its range holds [len] words. *)

val use : t -> id:int -> pos:int -> exclude:int list -> int
(** Make a value resident (reloading if necessary) and return its base
    register. Call {!consume_use} after the instruction is emitted. *)

val consume_use : t -> id:int -> pos:int -> unit
(** Record that the use at [pos] happened; frees the range after the last
    use. *)

val spill_loads : t -> int
(** Loads emitted to reload spilled/external values. *)

val spill_stores : t -> int
val total_uses : t -> int
