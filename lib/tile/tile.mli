(** A PUMA tile: cores, shared memory, receive buffer and the tile control
    unit executing the send/receive stream (Figure 5).

    The tile steps its control unit ({!step_tcu}) and holds its cores'
    pre-decoded streams ({!fast_code}), which {!Fastexec.step} runs; both
    return {!Puma_arch.Core}'s step code, and the node simulator
    interleaves them. Outgoing messages are handed to the node through a
    queue drained by the network model; incoming messages are delivered
    into the receive buffer with {!deliver}. *)

type outgoing = {
  target_tile : int;
  fifo_id : int;
  payload : int array;
  issue_cycle : int;  (** Core-clock cycle at which the send retired. *)
}

type t

val create :
  smem_words:int ->
  Puma_hwmodel.Config.t ->
  index:int ->
  energy:Puma_hwmodel.Energy.t ->
  core_code:Puma_isa.Instr.t array array ->
  tile_code:Puma_isa.Instr.t array ->
  t
(** [smem_words] sizes the shared memory; {!Puma_sim.Node.create}
    passes {!Puma_isa.Program.footprint}. *)

val index : t -> int
val num_cores : t -> int
val core : t -> int -> Puma_arch.Core.t
val shared_mem : t -> Shared_mem.t

val smem_generation : t -> int
(** Shortcut for [Shared_mem.generation (shared_mem t)]; the node loop's
    fast mode parks blocked cores and a blocked TCU on this counter. *)

val recv_buffer : t -> Recv_buffer.t

val fast_code : t -> Fastexec.code array
(** The pre-decoded instruction streams, one per core, built lazily on
    first use and cached (decoding is pure over the immutable code
    arrays). *)

val step_tcu : t -> now:int -> int
(** Advance the tile control unit by one send/receive instruction and
    return its step code, charging its {!Puma_arch.Cost} entry when it
    retires. A [send] blocks until its shared-memory operand is valid
    ({!Puma_arch.Core.r_blocked_read}); a [receive] blocks on
    [r_blocked_recv] until a packet is in its FIFO, then on
    [r_blocked_write] until the destination words are writable. *)

val pop_outgoing : t -> outgoing option
(** Drain the next message issued by a retired [send]. *)

val deliver : t -> fifo:int -> src_tile:int -> payload:int array -> bool
(** Network delivery into the receive buffer; [false] if the FIFO is full. *)

val all_halted : t -> bool
(** Control unit and every core have halted. *)

val host_write : t -> addr:int -> values:int array -> unit
val host_read : t -> addr:int -> width:int -> int array option

val tcu_pc : t -> int
(** Current tile-control-unit program counter (diagnostics). *)

val tcu_code : t -> Puma_isa.Instr.t array
(** The control unit's instruction stream. *)

val reset : t -> unit
(** Rewind the control unit and every core to the start of their streams
    (memory and register contents persist), enabling a new inference. *)
