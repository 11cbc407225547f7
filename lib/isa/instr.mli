(** The PUMA instruction set (Table 2).

    Instructions are seven bytes wide (see {!Encode}). Core instructions
    execute on the core's three-stage pipeline; tile instructions ([send]
    and [receive]) execute on the tile control unit. Vector instructions
    carry an explicit [vec_width] operand for temporal SIMD (Section 3.3);
    the MVM instruction carries a [mask] activating several MVMUs at once
    (MVM coalescing, Section 5.3.2) and [filter]/[stride] operands for
    logical input shuffling (Section 3.2.3). *)

type alu_op =
  (* linear *)
  | Add
  | Sub
  | Mul
  | Div
  | Shl
  | Shr
  | And
  | Or
  | Invert
  (* nonlinear / transcendental (served by the ROM-Embedded RAM LUTs) *)
  | Relu
  | Sigmoid
  | Tanh
  | Log
  | Exp
  (* other *)
  | Rand
  | Subsample
  | Min
  | Max

val alu_op_name : alu_op -> string
val alu_op_is_transcendental : alu_op -> bool
val alu_op_arity : alu_op -> int
(** 1 for unary (nonlinear, invert, rand), 2 for binary. *)

val alu_op_is_monotone : alu_op -> bool
(** Unary ops non-decreasing in their input, so interval endpoints map
    to result-range endpoints (the ROM-LUT nonlinears and Relu). *)

type alu_int_op = Iadd | Isub | Ieq | Ine | Igt

val alu_int_op_name : alu_int_op -> string

type brn_op = Beq | Bne | Blt | Bge

val brn_op_name : brn_op -> string

type addr =
  | Imm_addr of int  (** Absolute shared-memory word address. *)
  | Sreg_addr of int  (** Address taken from a scalar register (CNN-style
                          fine-grain random access, Section 2.3.2). *)

type t =
  | Mvm of { mask : int; filter : int; stride : int }
      (** Activate the MVMUs whose bit is set in [mask]; inputs are
          logically shuffled by a sliding window of [filter]/[stride]
          (0 means no shuffling). *)
  | Alu of {
      op : alu_op;
      dest : int;
      src1 : int;
      src2 : int;  (** Ignored for unary ops. *)
      vec_width : int;
    }
  | Alui of { op : alu_op; dest : int; src1 : int; imm : int; vec_width : int }
      (** [imm] is a raw 16-bit fixed-point pattern. *)
  | Alu_int of { op : alu_int_op; dest : int; src1 : int; src2 : int }
      (** Scalar-register operation on the SFU. *)
  | Set of { dest : int; imm : int }
      (** Vector-register element initialization with a raw immediate. *)
  | Set_sreg of { dest : int; imm : int }
      (** Scalar-register initialization. *)
  | Copy of { dest : int; src : int; vec_width : int }
  | Load of { dest : int; addr : addr; vec_width : int }
  | Store of { src : int; addr : addr; count : int; vec_width : int }
      (** [count] initializes the consumer count of the written entries
          (inter-core synchronization, Section 4.1.1). *)
  | Send of { mem_addr : int; fifo_id : int; target : int; vec_width : int }
      (** Tile instruction: read [vec_width] words at [mem_addr] of this
          tile's shared memory and send to FIFO [fifo_id] of tile
          [target]. *)
  | Receive of { mem_addr : int; fifo_id : int; count : int; vec_width : int }
      (** Tile instruction: pop a packet from FIFO [fifo_id] and store at
          [mem_addr] with consumer count [count]. *)
  | Jmp of { pc : int }
  | Brn of { op : brn_op; src1 : int; src2 : int; pc : int }
  | Halt  (** End of stream (assembler pseudo-instruction). *)

type unit_class = U_mvm | U_vfu | U_sfu | U_control | U_inter_core | U_inter_tile

val unit_of : t -> unit_class
(** Execution-unit classification used by the Figure 4 instruction-usage
    breakdown: MVMU, VFU (vector ALU + register moves), SFU, control flow,
    intra-tile (load/store), inter-tile (send/receive). *)

val unit_name : unit_class -> string
val all_units : unit_class list
