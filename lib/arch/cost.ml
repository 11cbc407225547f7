module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Energy = Puma_hwmodel.Energy
module Latency = Puma_hwmodel.Latency

type t = { cycles : int; charges : (Energy.category * int) list }

let fetch = [ (Energy.Fetch, 1) ]
let attr_fetch = (Energy.Attr, 1) :: fetch
let halt = { cycles = 0; charges = [] }

(* A vector operand is charged by the space of its first word. An
   out-of-range base gets [Rf] rather than an exception: the interpreter
   raises when it touches such a word, before it charges. *)
let reg (layout : Operand.layout) base width : Energy.category * int =
  if base >= layout.xbar_in_base && base < layout.gpr_base then
    (Xbar_reg, width)
  else (Rf, width)

let of_instr (config : Puma_hwmodel.Config.t) layout (i : Instr.t) =
  let reg = reg layout in
  match i with
  | Halt -> halt
  | Mvm { mask; _ } ->
      (* Coalesced MVMs on different MVMUs run in parallel: one MVM
         latency however many mask bits are set. Mask bits beyond the
         physical MVMUs select nothing. *)
      let pair = (Energy.Xbar_reg, 2 * config.mvmu_dim) in
      let charges = ref fetch in
      for m = config.mvmus_per_core - 1 downto 0 do
        if mask land (1 lsl m) <> 0 then
          charges := (Energy.Mvm, 1) :: pair :: !charges
      done;
      { cycles = Latency.mvm config; charges = !charges }
  | Alu { op; dest; src1; src2; vec_width = w } ->
      let tail =
        reg dest w :: (Vfu, w)
        :: (if Instr.alu_op_is_transcendental op then (Lut, w) :: fetch
            else fetch)
      in
      let charges =
        if op = Subsample then reg src1 (2 * w) :: tail
        else if Instr.alu_op_arity op = 1 then reg src1 w :: tail
        else reg src1 w :: reg src2 w :: tail
      in
      { cycles = Latency.alu config ~vec_width:w; charges }
  | Alui { dest; src1; vec_width = w; _ } ->
      {
        cycles = Latency.alu config ~vec_width:w;
        charges = [ reg src1 w; reg dest w; (Vfu, w); (Fetch, 1) ];
      }
  | Alu_int _ -> { cycles = Latency.alu_int; charges = (Sfu, 1) :: fetch }
  | Set { dest; _ } -> { cycles = Latency.set; charges = reg dest 1 :: fetch }
  | Set_sreg _ -> { cycles = Latency.set; charges = (Sfu, 1) :: fetch }
  | Copy { dest; src; vec_width = w } ->
      {
        cycles = Latency.copy config ~vec_width:w;
        charges = [ reg src w; reg dest w; (Fetch, 1) ];
      }
  | Load { dest; vec_width = w; _ } ->
      {
        cycles = Latency.load config ~vec_width:w;
        charges = reg dest w :: (Smem, w) :: (Bus, w) :: attr_fetch;
      }
  | Store { src; vec_width = w; _ } ->
      {
        cycles = Latency.store config ~vec_width:w;
        charges = reg src w :: (Smem, w) :: (Bus, w) :: attr_fetch;
      }
  | Jmp _ -> { cycles = Latency.jump; charges = fetch }
  | Brn _ -> { cycles = Latency.branch; charges = (Sfu, 1) :: fetch }
  | Send { vec_width = w; _ } ->
      {
        cycles = Latency.send_occupancy config ~vec_width:w;
        charges = [ (Smem, w); (Bus, w); (Attr, 1) ];
      }
  | Receive { vec_width = w; _ } ->
      {
        cycles = Latency.receive_occupancy config ~vec_width:w;
        charges = [ (Fifo, w); (Smem, w); (Bus, w); (Attr, 1) ];
      }

let energy_pj config t =
  List.fold_left
    (fun acc (cat, n) ->
      acc +. (Energy.per_event_pj config cat *. Float.of_int n))
    0. t.charges
