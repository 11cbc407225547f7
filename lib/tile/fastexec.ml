(* Pre-decoded fast execution path for a core's instruction stream.

   [decode] lowers every instruction into a closure with its operand
   views resolved once, so the per-cycle cost drops to an array index
   plus an indirect call — no pattern match on boxed ISA values, no
   register-space dispatch, no per-retire allocation. [interpret] builds
   the other stream the node's loop can run, every pc on [Core.step] (its
   reference mode). [step] drives one instruction of either and returns
   [Core]'s step code, the one protocol of every entity the loop steps.

   Bit-identity with [Core.step] is the contract, checked by
   test/test_fastpath.ml:
   - register and memory mutations happen in the same element order
     (ascending [k] loops, so overlapping vector operands behave
     identically);
   - retirement goes through [Core.commit], which records the same
     [Cost] entry [Core.step] records (float accumulation order matters
     for bit-identical ledgers);
   - RNG-consuming ops ([Rand]) go through the same [Vfu] entry points in
     the same element order;
   - anything that cannot be resolved statically — operands crossing a
     register-space boundary, out-of-range bases whose exceptions must
     stay lazy, tile instructions in a core stream — falls back to
     [Core.step] itself, whose code passes through unchanged. *)

module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Core = Puma_arch.Core
module Regfile = Puma_arch.Regfile
module Vfu = Puma_arch.Vfu
module Sfu = Puma_arch.Sfu
module Fixed = Puma_util.Fixed
module Mvmu = Puma_xbar.Mvmu

type code = (unit -> int) array

(* A vector operand resolved to a flat backing array: (buffer, offset). *)
type view = int array * int

(* [Core.step] on [core], wired to the tile's shared memory (one
   [mem_iface], built once): the fallback closure of [decode] and every
   closure of [interpret]. *)
let interpreter core smem : unit -> int =
  let mem : Core.mem_iface =
    {
      load = (fun ~addr ~width -> Shared_mem.read smem ~addr ~width);
      store =
        (fun ~addr ~values ~count -> Shared_mem.write smem ~addr ~values ~count);
    }
  in
  fun () -> Core.step core ~mem

let interpret core smem : code =
  Array.make (Array.length (Core.code core)) (interpreter core smem)

let decode (core : Core.t) (smem : Shared_mem.t) : code =
  let layout = Core.layout core in
  let gpr = Regfile.gpr (Core.regfile core) in
  let sregs = Core.sregs core in
  let mvmus = Core.mvmus core in
  let rng = Core.rng core in
  let dim = layout.Operand.mvmu_dim in
  let generic = interpreter core smem in
  (* Resolve [base, base+width) to a single backing array, or [None] when
     the range is empty, out of bounds (the reference path's lazy
     exception must be preserved) or crosses an MVMU/space boundary
     (element-wise dispatch required). *)
  let view base width : view option =
    if base < 0 || width < 1 || base + width > layout.Operand.total then None
    else if base + width <= layout.Operand.xbar_out_base then
      let off = base - layout.Operand.xbar_in_base in
      let m = off / dim and e = off mod dim in
      if e + width <= dim then Some (Mvmu.xbar_in mvmus.(m), e)
      else None
    else if
      base >= layout.Operand.xbar_out_base
      && base + width <= layout.Operand.gpr_base
    then
      let off = base - layout.Operand.xbar_out_base in
      let m = off / dim and e = off mod dim in
      if e + width <= dim then Some (Mvmu.xbar_out mvmus.(m), e)
      else None
    else if base >= layout.Operand.gpr_base then
      Some (gpr, base - layout.Operand.gpr_base)
    else None
  in
  (* The hot ALU ops run one vector kernel per instruction ([Fixed.Vec],
     [Rom_lut.apply]): the same scalar definitions [Vfu.apply_*] reaches,
     inlined. Everything else dispatches to [Vfu] per element. *)
  let binary_loop op (sa, oa) (sb, ob) (dd, od) w =
    match (op : Instr.alu_op) with
    | Add -> fun () -> Fixed.Vec.add sa oa sb ob dd od w
    | Sub -> fun () -> Fixed.Vec.sub sa oa sb ob dd od w
    | Mul -> fun () -> Fixed.Vec.mul sa oa sb ob dd od w
    | Min -> fun () -> Fixed.Vec.min sa oa sb ob dd od w
    | Max -> fun () -> Fixed.Vec.max sa oa sb ob dd od w
    | _ ->
        fun () ->
          for k = 0 to w - 1 do
            dd.(od + k) <- Vfu.apply_binary op sa.(oa + k) sb.(ob + k)
          done
  in
  let unary_loop op (sa, oa) (dd, od) w =
    match (op : Instr.alu_op) with
    | Relu -> fun () -> Fixed.Vec.relu sa oa dd od w
    | Sigmoid | Tanh | Log | Exp ->
        let f = Puma_arch.Rom_lut.apply op in
        fun () -> f sa oa dd od w
    | _ ->
        fun () ->
          for k = 0 to w - 1 do
            dd.(od + k) <- Vfu.apply_unary op ~rng sa.(oa + k)
          done
  in
  let alui_loop op imm (sa, oa) (dd, od) w =
    match (op : Instr.alu_op) with
    | Add -> fun () -> Fixed.Vec.add_imm imm sa oa dd od w
    | Mul -> fun () -> Fixed.Vec.mul_imm imm sa oa dd od w
    | _ ->
        fun () ->
          for k = 0 to w - 1 do
            dd.(od + k) <- Vfu.apply_binary op sa.(oa + k) imm
          done
  in
  let decode_one pc (instr : Instr.t) : unit -> int =
    let next = pc + 1 in
    match instr with
    | Halt ->
        fun () ->
          Core.force_halt core;
          Core.r_halted
    | Mvm { mask; filter = _; stride } ->
        (* Active MVMU indices in ascending order, as [Array.iteri]
           visits them; mask bits beyond the physical MVMUs are ignored. *)
        let actives =
          Array.of_list
            (List.filter
               (fun i -> mask land (1 lsl i) <> 0)
               (List.init (Array.length mvmus) Fun.id))
        in
        fun () ->
          for k = 0 to Array.length actives - 1 do
            Mvmu.execute_fast mvmus.(actives.(k)) ~stride
          done;
          Core.commit core ~target:next
    | Alu { op; dest; src1; src2; vec_width = w } -> (
        match Instr.alu_op_arity op with
        | 1 when op = Subsample -> (
            (* Reads src1 + 2k for k < w: the source view must cover
               2w - 1 elements. *)
            match (view src1 ((2 * w) - 1), view dest w) with
            | Some (sa, oa), Some (dd, od) ->
                fun () ->
                  for k = 0 to w - 1 do
                    dd.(od + k) <- sa.(oa + (2 * k))
                  done;
                  Core.commit core ~target:next
            | _ -> generic)
        | 1 -> (
            match (view src1 w, view dest w) with
            | Some sv, Some dv ->
                let body = unary_loop op sv dv w in
                fun () ->
                  body ();
                  Core.commit core ~target:next
            | _ -> generic)
        | _ -> (
            match (view src1 w, view src2 w, view dest w) with
            | Some sv1, Some sv2, Some dv ->
                let body = binary_loop op sv1 sv2 dv w in
                fun () ->
                  body ();
                  Core.commit core ~target:next
            | _ -> generic))
    | Alui { op; dest; src1; imm; vec_width = w } -> (
        match (view src1 w, view dest w) with
        | Some sv, Some dv ->
            let body = alui_loop op imm sv dv w in
            fun () ->
              body ();
              Core.commit core ~target:next
        | _ -> generic)
    | Alu_int { op; dest; src1; src2 } ->
        fun () ->
          sregs.(dest) <- Sfu.apply op sregs.(src1) sregs.(src2);
          Core.commit core ~target:next
    | Set { dest; imm } -> (
        match view dest 1 with
        | Some (dd, od) ->
            fun () ->
              dd.(od) <- imm;
              Core.commit core ~target:next
        | None -> generic)
    | Set_sreg { dest; imm } ->
        fun () ->
          sregs.(dest) <- imm;
          Core.commit core ~target:next
    | Copy { dest; src; vec_width = w } -> (
        match (view src w, view dest w) with
        | Some (ss, os), Some (dd, od) ->
            (* Ascending element loop, not a blit: overlapping src/dest
               ranges must copy exactly as the reference path does. *)
            fun () ->
              for k = 0 to w - 1 do
                dd.(od + k) <- ss.(os + k)
              done;
              Core.commit core ~target:next
        | _ -> generic)
    | Load { dest; addr; vec_width = w } -> (
        match view dest w with
        | Some (dd, od) ->
            fun () ->
              let a =
                match addr with
                | Instr.Imm_addr a -> a
                | Instr.Sreg_addr s -> sregs.(s)
              in
              if Shared_mem.read_into smem ~addr:a ~width:w ~dst:dd ~dst_pos:od
              then Core.commit core ~target:next
              else Core.r_blocked_read
        | None -> generic)
    | Store { src; addr; count; vec_width = w } -> (
        match view src w with
        | Some (ss, os) ->
            fun () ->
              let a =
                match addr with
                | Instr.Imm_addr a -> a
                | Instr.Sreg_addr s -> sregs.(s)
              in
              if
                Shared_mem.write_from smem ~addr:a ~src:ss ~src_pos:os ~width:w
                  ~count
              then Core.commit core ~target:next
              else Core.r_blocked_write
        | None -> generic)
    | Jmp { pc } -> fun () -> Core.commit core ~target:pc
    | Brn { op; src1; src2; pc } ->
        fun () ->
          Core.commit core
            ~target:
              (if Sfu.branch_taken op sregs.(src1) sregs.(src2) then pc
               else next)
    | Send _ | Receive _ ->
        (* Tile instruction in a core stream: the reference path raises;
           keep that behavior (and its laziness). *)
        generic
  in
  Array.mapi decode_one (Core.code core)

(* Run one instruction of [core] through its pre-decoded [code]. Mirrors
   the halt/pc-range prologue of [Core.step]: [Core.halted] already
   covers both the flag and an out-of-range pc, and [Core.step] latches
   the flag in the out-of-range case. *)
let step (core : Core.t) (dec : code) =
  if Core.halted core then begin
    Core.force_halt core;
    Core.r_halted
  end
  else (Array.unsafe_get dec (Core.pc core)) ()
