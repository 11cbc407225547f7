type alu_op =
  | Add
  | Sub
  | Mul
  | Div
  | Shl
  | Shr
  | And
  | Or
  | Invert
  | Relu
  | Sigmoid
  | Tanh
  | Log
  | Exp
  | Rand
  | Subsample
  | Min
  | Max

let alu_op_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Shl -> "shl"
  | Shr -> "shr"
  | And -> "and"
  | Or -> "or"
  | Invert -> "inv"
  | Relu -> "relu"
  | Sigmoid -> "sigmoid"
  | Tanh -> "tanh"
  | Log -> "log"
  | Exp -> "exp"
  | Rand -> "rand"
  | Subsample -> "subsample"
  | Min -> "min"
  | Max -> "max"

let alu_op_is_transcendental = function
  | Sigmoid | Tanh | Log | Exp -> true
  | Add | Sub | Mul | Div | Shl | Shr | And | Or | Invert | Relu | Rand
  | Subsample | Min | Max ->
      false

(* Range metadata for the value-range analyzer and its soundness tests. *)

let alu_op_is_monotone = function
  | Relu | Sigmoid | Tanh | Log | Exp -> true
  | Add | Sub | Mul | Div | Shl | Shr | And | Or | Invert | Rand | Subsample
  | Min | Max ->
      false

let alu_op_arity = function
  | Invert | Relu | Sigmoid | Tanh | Log | Exp | Rand | Subsample -> 1
  | Add | Sub | Mul | Div | Shl | Shr | And | Or | Min | Max -> 2

type alu_int_op = Iadd | Isub | Ieq | Ine | Igt

let alu_int_op_name = function
  | Iadd -> "iadd"
  | Isub -> "isub"
  | Ieq -> "ieq"
  | Ine -> "ine"
  | Igt -> "igt"

type brn_op = Beq | Bne | Blt | Bge

let brn_op_name = function
  | Beq -> "beq"
  | Bne -> "bne"
  | Blt -> "blt"
  | Bge -> "bge"

type addr = Imm_addr of int | Sreg_addr of int

type t =
  | Mvm of { mask : int; filter : int; stride : int }
  | Alu of { op : alu_op; dest : int; src1 : int; src2 : int; vec_width : int }
  | Alui of { op : alu_op; dest : int; src1 : int; imm : int; vec_width : int }
  | Alu_int of { op : alu_int_op; dest : int; src1 : int; src2 : int }
  | Set of { dest : int; imm : int }
  | Set_sreg of { dest : int; imm : int }
  | Copy of { dest : int; src : int; vec_width : int }
  | Load of { dest : int; addr : addr; vec_width : int }
  | Store of { src : int; addr : addr; count : int; vec_width : int }
  | Send of { mem_addr : int; fifo_id : int; target : int; vec_width : int }
  | Receive of { mem_addr : int; fifo_id : int; count : int; vec_width : int }
  | Jmp of { pc : int }
  | Brn of { op : brn_op; src1 : int; src2 : int; pc : int }
  | Halt

type unit_class = U_mvm | U_vfu | U_sfu | U_control | U_inter_core | U_inter_tile

let unit_of = function
  | Mvm _ -> U_mvm
  | Alu _ | Alui _ | Set _ | Copy _ -> U_vfu
  | Alu_int _ | Set_sreg _ -> U_sfu
  | Jmp _ | Brn _ | Halt -> U_control
  | Load _ | Store _ -> U_inter_core
  | Send _ | Receive _ -> U_inter_tile

let unit_name = function
  | U_mvm -> "MVM Unit (crossbar)"
  | U_vfu -> "Vector Functional Unit"
  | U_sfu -> "Scalar Functional Unit"
  | U_control -> "Control Flow"
  | U_inter_core -> "Inter-Core Data Transfer"
  | U_inter_tile -> "Inter-Tile Data Transfer"

let all_units = [ U_inter_tile; U_inter_core; U_control; U_sfu; U_vfu; U_mvm ]
