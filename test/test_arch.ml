module Rom_lut = Puma_arch.Rom_lut
module Vfu = Puma_arch.Vfu
module Sfu = Puma_arch.Sfu
module Regfile = Puma_arch.Regfile
module Core = Puma_arch.Core
module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Fixed = Puma_util.Fixed
module Config = Puma_hwmodel.Config
module Energy = Puma_hwmodel.Energy

let small_config = { Config.default with mvmu_dim = 16; vfu_width = 4 }

(* ---- ROM-Embedded RAM LUTs ---- *)

let test_lut_accuracy () =
  List.iter
    (fun op ->
      let err = Rom_lut.max_abs_error op in
      Alcotest.(check bool)
        (Printf.sprintf "%s err %.5f" (Instr.alu_op_name op) err)
        true (err < 0.02))
    [ Instr.Sigmoid; Instr.Tanh ]

let test_lut_exp_log () =
  (* Exp/log have steep regions; check moderate inputs pointwise. *)
  List.iter
    (fun x ->
      let got = Fixed.to_float (Rom_lut.eval Instr.Exp (Fixed.of_float x)) in
      Alcotest.(check bool)
        (Printf.sprintf "exp %f = %f vs %f" x got (exp x))
        true
        (Float.abs (got -. exp x) < (0.05 *. exp x) +. 0.05))
    [ -2.0; -1.0; 0.0; 0.5; 1.0 ];
  List.iter
    (fun x ->
      let got = Fixed.to_float (Rom_lut.eval Instr.Log (Fixed.of_float x)) in
      Alcotest.(check bool)
        (Printf.sprintf "log %f = %f" x got)
        true
        (Float.abs (got -. log x) < 0.08))
    [ 0.5; 1.0; 2.0; 5.0 ]

let test_lut_rejects_non_transcendental () =
  Alcotest.(check bool) "add rejected" true
    (try
       ignore (Rom_lut.eval Instr.Add Fixed.one);
       false
     with Invalid_argument _ -> true)

let test_lut_sigmoid_range () =
  for raw = -32768 to 32767 do
    if raw mod 97 = 0 then begin
      let v = Fixed.to_float (Rom_lut.eval Instr.Sigmoid (Fixed.of_raw raw)) in
      Alcotest.(check bool) "sigmoid in [0,1]" true (v >= -0.01 && v <= 1.01)
    end
  done

(* The per-op tables hold, for every 16-bit input, the ROM's float
   interpolation between its knots, restated here; [apply] reads the same
   tables, saturating raws beyond 16 bits as [of_raw] does. *)
let test_lut_exhaustive () =
  let n = Rom_lut.table_entries in
  let lo = Fixed.to_float (Fixed.of_raw Fixed.min_raw) in
  let step = (Fixed.to_float (Fixed.of_raw Fixed.max_raw) -. lo) /. Float.of_int (n - 1) in
  let raws = Array.init 65_540 (fun i -> Fixed.min_raw - 2 + i) in
  List.iter
    (fun op ->
      let knots =
        Array.init n (fun k -> Rom_lut.reference op (lo +. (Float.of_int k *. step)))
      in
      let out = Array.make (Array.length raws) 0 in
      Rom_lut.apply op raws 0 out 0 (Array.length raws);
      Array.iteri
        (fun i raw ->
          let x = Fixed.of_raw raw in
          let pos = (Fixed.to_float x -. lo) /. step in
          let k = max 0 (min (n - 2) (Float.to_int pos)) in
          let frac = pos -. Float.of_int k in
          let want =
            Fixed.to_raw (Fixed.of_float (knots.(k) +. (frac *. (knots.(k + 1) -. knots.(k)))))
          in
          let got = Fixed.to_raw (Rom_lut.eval op x) in
          if got <> want || out.(i) <> want then
            Alcotest.failf "%s raw %d: eval %d, apply %d, interpolation %d"
              (Instr.alu_op_name op) raw got out.(i) want)
        raws)
    [ Instr.Sigmoid; Instr.Tanh; Instr.Exp; Instr.Log ]

(* ---- VFU ---- *)

let rng = Puma_util.Rng.create 1

let test_vfu_binary_ops () =
  let a = Fixed.to_raw (Fixed.of_float 2.0) in
  let b = Fixed.to_raw (Fixed.of_float 0.5) in
  let f op = Fixed.to_float (Fixed.of_raw (Vfu.apply_binary op a b)) in
  Alcotest.(check (float 1e-3)) "add" 2.5 (f Instr.Add);
  Alcotest.(check (float 1e-3)) "sub" 1.5 (f Instr.Sub);
  Alcotest.(check (float 1e-3)) "mul" 1.0 (f Instr.Mul);
  Alcotest.(check (float 1e-2)) "div" 4.0 (f Instr.Div);
  Alcotest.(check (float 1e-3)) "min" 0.5 (f Instr.Min);
  Alcotest.(check (float 1e-3)) "max" 2.0 (f Instr.Max)

let test_vfu_relu () =
  let pos = Fixed.to_raw (Fixed.of_float 1.25) in
  let neg = Fixed.to_raw (Fixed.of_float (-1.25)) in
  Alcotest.(check int) "relu pos" pos (Vfu.apply_unary Instr.Relu ~rng pos);
  Alcotest.(check int) "relu neg" 0 (Vfu.apply_unary Instr.Relu ~rng neg)

let test_vfu_rand_range () =
  for _ = 1 to 200 do
    let v = Fixed.to_float (Fixed.of_raw (Vfu.apply_unary Instr.Rand ~rng 0)) in
    Alcotest.(check bool) "rand in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_vfu_arity_errors () =
  Alcotest.(check bool) "unary on binary op" true
    (try
       ignore (Vfu.apply_unary Instr.Add ~rng 0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "binary on unary op" true
    (try
       ignore (Vfu.apply_binary Instr.Relu 0 0);
       false
     with Invalid_argument _ -> true)

(* ---- SFU ---- *)

let test_sfu_ops () =
  Alcotest.(check int) "iadd" 7 (Sfu.apply Instr.Iadd 3 4);
  Alcotest.(check int) "isub" (-1) (Sfu.apply Instr.Isub 3 4);
  Alcotest.(check int) "ieq true" 1 (Sfu.apply Instr.Ieq 5 5);
  Alcotest.(check int) "ine" 1 (Sfu.apply Instr.Ine 5 6);
  Alcotest.(check int) "igt" 0 (Sfu.apply Instr.Igt 5 6)

let test_sfu_branches () =
  Alcotest.(check bool) "beq" true (Sfu.branch_taken Instr.Beq 2 2);
  Alcotest.(check bool) "bne" false (Sfu.branch_taken Instr.Bne 2 2);
  Alcotest.(check bool) "blt" true (Sfu.branch_taken Instr.Blt 1 2);
  Alcotest.(check bool) "bge" true (Sfu.branch_taken Instr.Bge 2 2)

(* ---- Core execution ---- *)

let null_mem : Core.mem_iface =
  {
    load = (fun ~addr:_ ~width -> Some (Array.make width 0));
    store = (fun ~addr:_ ~values:_ ~count:_ -> true);
  }

let run_core ?(mem = null_mem) code =
  let energy = Energy.create small_config in
  let core = Core.create small_config ~energy code in
  let rec go n =
    if n > 10000 then Alcotest.fail "core did not halt";
    match Core.step core ~mem with
    | r when r >= 0 -> go (n + 1)
    | r when r <> Core.r_halted -> Alcotest.fail "core blocked unexpectedly"
    | _ -> core
  in
  go 0

let layout = Operand.layout small_config

let test_core_set_alu () =
  let r0 = Operand.gpr layout 0 and r1 = Operand.gpr layout 1 in
  let r2 = Operand.gpr layout 2 in
  let core =
    run_core
      [|
        Set { dest = r0; imm = Fixed.to_raw (Fixed.of_float 1.5) };
        Set { dest = r1; imm = Fixed.to_raw (Fixed.of_float 2.0) };
        Alu { op = Add; dest = r2; src1 = r0; src2 = r1; vec_width = 1 };
        Halt;
      |]
  in
  Alcotest.(check (float 1e-3)) "1.5+2.0" 3.5
    (Fixed.to_float (Fixed.of_raw (Regfile.read (Core.regfile core) r2)))

let test_core_mvm_instruction () =
  let energy = Energy.create small_config in
  let id16 = Puma_util.Tensor.mat_init 16 16 (fun i j -> if i = j then 1.0 else 0.0) in
  let xin = Operand.xbar_in layout ~mvmu:0 ~elem:0 in
  let xout = Operand.xbar_out layout ~mvmu:0 ~elem:0 in
  let r0 = Operand.gpr layout 0 in
  let code =
    [|
      Instr.Set { dest = xin; imm = Fixed.to_raw (Fixed.of_float 0.75) };
      Instr.Mvm { mask = 1; filter = 0; stride = 0 };
      Instr.Copy { dest = r0; src = xout; vec_width = 16 };
      Instr.Halt;
    |]
  in
  let core = Core.create small_config ~energy code in
  Core.program_mvmu core ~index:0 (Fixed.image_of_mat id16);
  let rec go () =
    match Core.step core ~mem:null_mem with
    | r when r >= 0 -> go ()
    | r when r <> Core.r_halted -> Alcotest.fail "blocked"
    | _ -> ()
  in
  go ();
  Alcotest.(check (float 1e-3)) "identity mvm" 0.75
    (Fixed.to_float (Fixed.of_raw (Regfile.read (Core.regfile core) r0)));
  Alcotest.(check int) "one mvm event" 1 (Energy.count energy Mvm)

let test_core_control_flow_loop () =
  (* s0 = 0; do { s0 += 1 } while (s0 < 5) via brn. *)
  let code =
    [|
      Instr.Set_sreg { dest = 0; imm = 0 };
      Instr.Set_sreg { dest = 1; imm = 5 };
      Instr.Set_sreg { dest = 2; imm = 1 };
      Instr.Alu_int { op = Iadd; dest = 0; src1 = 0; src2 = 2 };
      Instr.Brn { op = Blt; src1 = 0; src2 = 1; pc = 3 };
      Instr.Halt;
    |]
  in
  let core = run_core code in
  (* 3 sets + 5 adds + 5 branches = 13 retired. *)
  Alcotest.(check int) "retired" 13 (Core.retired core)

let test_core_blocking_load () =
  let attempts = ref 0 in
  let mem : Core.mem_iface =
    {
      load =
        (fun ~addr:_ ~width ->
          incr attempts;
          if !attempts < 3 then None else Some (Array.make width 42));
      store = (fun ~addr:_ ~values:_ ~count:_ -> true);
    }
  in
  let r0 = Operand.gpr layout 0 in
  let energy = Energy.create small_config in
  let core =
    Core.create small_config ~energy
      [| Instr.Load { dest = r0; addr = Imm_addr 0; vec_width = 1 }; Instr.Halt |]
  in
  Alcotest.(check bool) "blocked 1" true (Core.step core ~mem = Core.r_blocked_read);
  Alcotest.(check bool) "blocked 2" true (Core.step core ~mem = Core.r_blocked_read);
  (match Core.step core ~mem with
  | r when r >= 0 -> ()
  | _ -> Alcotest.fail "expected retire");
  Alcotest.(check int) "loaded" 42 (Regfile.read (Core.regfile core) r0)

let test_core_store_uses_sreg_addr () =
  let stored = ref (-1) in
  let mem : Core.mem_iface =
    {
      load = (fun ~addr:_ ~width -> Some (Array.make width 0));
      store =
        (fun ~addr ~values:_ ~count:_ ->
          stored := addr;
          true);
    }
  in
  let r0 = Operand.gpr layout 0 in
  ignore
    (run_core ~mem
       [|
         Instr.Set_sreg { dest = 3; imm = 77 };
         Instr.Set { dest = r0; imm = 1 };
         Instr.Store { src = r0; addr = Sreg_addr 3; count = 0; vec_width = 1 };
         Instr.Halt;
       |]);
  Alcotest.(check int) "sreg-addressed store" 77 !stored

let test_core_temporal_simd_latency () =
  let energy = Energy.create small_config in
  let r0 = Operand.gpr layout 0 in
  let core =
    Core.create small_config ~energy
      [| Instr.Alu { op = Add; dest = r0; src1 = r0; src2 = r0; vec_width = 16 } |]
  in
  (match Core.step core ~mem:null_mem with
  | cycles when cycles >= 0 ->
      (* 16 elements over 4 lanes = 4 cycles + 1. *)
      Alcotest.(check int) "temporal SIMD cycles" 5 cycles
  | _ -> Alcotest.fail "expected retire");
  Alcotest.(check int) "vfu lane events" 16 (Energy.count energy Vfu)

let test_core_rejects_tile_instr () =
  let energy = Energy.create small_config in
  let core =
    Core.create small_config ~energy
      [| Instr.Send { mem_addr = 0; fifo_id = 0; target = 0; vec_width = 1 } |]
  in
  Alcotest.(check bool) "send rejected" true
    (try
       ignore (Core.step core ~mem:null_mem);
       false
     with Invalid_argument _ -> true)

let test_core_jmp_skips () =
  let r0 = Operand.gpr layout 0 in
  let core =
    run_core
      [|
        Instr.Set { dest = r0; imm = 1 };
        Instr.Jmp { pc = 3 };
        Instr.Set { dest = r0; imm = 2 } (* skipped *);
        Instr.Halt;
      |]
  in
  Alcotest.(check int) "jumped over" 1 (Regfile.read (Core.regfile core) r0);
  Alcotest.(check int) "retired" 2 (Core.retired core)

let test_core_subsample () =
  let r0 = Operand.gpr layout 0 and r8 = Operand.gpr layout 8 in
  let code =
    Array.append
      (Array.init 8 (fun k ->
           Instr.Set { dest = r0 + k; imm = 100 + k }))
      [|
        Instr.Alu { op = Subsample; dest = r8; src1 = r0; src2 = r0; vec_width = 4 };
        Instr.Halt;
      |]
  in
  let core = run_core code in
  Alcotest.(check (array int)) "every second element" [| 100; 102; 104; 106 |]
    (Regfile.read_vec (Core.regfile core) r8 4)

let test_core_rand_deterministic_per_seed () =
  let r0 = Operand.gpr layout 0 in
  let code =
    [| Instr.Alu { op = Rand; dest = r0; src1 = r0; src2 = r0; vec_width = 8 }; Instr.Halt |]
  in
  let run seed =
    let energy = Energy.create small_config in
    let core = Core.create small_config ~seed ~energy code in
    let rec go () =
      match Core.step core ~mem:null_mem with
      | r when r >= 0 -> go ()
      | r when r <> Core.r_halted -> Alcotest.fail "blocked"
      | _ -> Regfile.read_vec (Core.regfile core) r0 8
    in
    go ()
  in
  Alcotest.(check (array int)) "same seed same stream" (run 5) (run 5);
  Alcotest.(check bool) "different seeds differ" true (run 5 <> run 6)

let test_core_copy_between_spaces () =
  (* GPR -> XbarIn -> (identity MVM) -> XbarOut -> GPR round trip. *)
  let energy = Energy.create small_config in
  let id16 = Puma_util.Tensor.mat_init 16 16 (fun i j -> if i = j then 1.0 else 0.0) in
  let r0 = Operand.gpr layout 0 and r16 = Operand.gpr layout 16 in
  let xin = Operand.xbar_in layout ~mvmu:1 ~elem:0 in
  let xout = Operand.xbar_out layout ~mvmu:1 ~elem:0 in
  let code =
    Array.concat
      [
        Array.init 16 (fun k ->
            Instr.Set { dest = r0 + k; imm = Fixed.to_raw (Fixed.of_float (0.1 *. Float.of_int k)) });
        [|
          Instr.Copy { dest = xin; src = r0; vec_width = 16 };
          Instr.Mvm { mask = 0b10; filter = 0; stride = 0 };
          Instr.Copy { dest = r16; src = xout; vec_width = 16 };
          Instr.Halt;
        |];
      ]
  in
  let core = Core.create small_config ~energy code in
  Core.program_mvmu core ~index:1 (Fixed.image_of_mat id16);
  let rec go () =
    match Core.step core ~mem:null_mem with
    | r when r >= 0 -> go ()
    | r when r <> Core.r_halted -> Alcotest.fail "blocked"
    | _ -> ()
  in
  go ();
  Alcotest.(check (array int)) "round trip through mvmu 1"
    (Regfile.read_vec (Core.regfile core) r0 16)
    (Regfile.read_vec (Core.regfile core) r16 16)

(* ---- Regfile routing ---- *)

let test_regfile_routes_xbar_spaces () =
  let mvmus = Array.init 2 (fun _ -> Puma_xbar.Mvmu.create small_config) in
  let rf = Regfile.create layout mvmus in
  Regfile.write rf (Operand.xbar_in layout ~mvmu:1 ~elem:3) 123;
  Alcotest.(check int) "routed to mvmu xbar_in" 123
    (Puma_xbar.Mvmu.xbar_in mvmus.(1)).(3);
  (Puma_xbar.Mvmu.xbar_out mvmus.(0)).(7) <- 55;
  Alcotest.(check int) "read from mvmu xbar_out" 55
    (Regfile.read rf (Operand.xbar_out layout ~mvmu:0 ~elem:7));
  Regfile.write_vec rf (Operand.gpr layout 0) [| 1; 2; 3 |];
  Alcotest.(check (array int)) "gpr vec" [| 1; 2; 3 |]
    (Regfile.read_vec rf (Operand.gpr layout 0) 3)

let () =
  Alcotest.run "arch"
    [
      ( "rom-lut",
        [
          Alcotest.test_case "sigmoid/tanh accuracy" `Quick test_lut_accuracy;
          Alcotest.test_case "exp/log" `Quick test_lut_exp_log;
          Alcotest.test_case "rejects linear op" `Quick test_lut_rejects_non_transcendental;
          Alcotest.test_case "sigmoid range" `Quick test_lut_sigmoid_range;
          Alcotest.test_case "exhaustive tables" `Quick test_lut_exhaustive;
        ] );
      ( "vfu",
        [
          Alcotest.test_case "binary ops" `Quick test_vfu_binary_ops;
          Alcotest.test_case "relu" `Quick test_vfu_relu;
          Alcotest.test_case "rand range" `Quick test_vfu_rand_range;
          Alcotest.test_case "arity errors" `Quick test_vfu_arity_errors;
        ] );
      ( "sfu",
        [
          Alcotest.test_case "ops" `Quick test_sfu_ops;
          Alcotest.test_case "branches" `Quick test_sfu_branches;
        ] );
      ( "core",
        [
          Alcotest.test_case "set + alu" `Quick test_core_set_alu;
          Alcotest.test_case "mvm instruction" `Quick test_core_mvm_instruction;
          Alcotest.test_case "control-flow loop" `Quick test_core_control_flow_loop;
          Alcotest.test_case "blocking load" `Quick test_core_blocking_load;
          Alcotest.test_case "sreg-addressed store" `Quick test_core_store_uses_sreg_addr;
          Alcotest.test_case "temporal SIMD latency" `Quick test_core_temporal_simd_latency;
          Alcotest.test_case "rejects tile instr" `Quick test_core_rejects_tile_instr;
          Alcotest.test_case "jmp skips" `Quick test_core_jmp_skips;
          Alcotest.test_case "subsample" `Quick test_core_subsample;
          Alcotest.test_case "rand per seed" `Quick test_core_rand_deterministic_per_seed;
          Alcotest.test_case "copy across spaces" `Quick test_core_copy_between_spaces;
        ] );
      ( "regfile",
        [ Alcotest.test_case "xbar routing" `Quick test_regfile_routes_xbar_spaces ] );
    ]
