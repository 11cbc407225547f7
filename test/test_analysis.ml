(* Static analyzer tests: clean bills of health for everything the
   compiler emits, plus a mutation corpus — one seeded defect per
   analysis class, each caught with its stable diagnostic code. *)

module Analyze = Puma_analysis.Analyze
module Diag = Puma_analysis.Diag
module Asm = Puma_isa.Asm
module Check = Puma_isa.Check
module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Program = Puma_isa.Program
module Compile = Puma_compiler.Compile
module Config = Puma_hwmodel.Config
module Models = Puma_nn.Models
module Network = Puma_nn.Network

let config dim = { Config.sweetspot with mvmu_dim = dim }

let compile ?(dim = 128) ?(wrap = false) g =
  let options =
    {
      Compile.default_options with
      wrap_batch_loop = wrap;
      analysis_gate = false;
    }
  in
  Compile.compile ~options (config dim) g

let mlp () = Network.build_graph Models.mini_mlp

let error_codes (r : Analyze.report) =
  List.filter_map
    (fun (d : Diag.t) ->
      if d.severity = Diag.Error then Some d.code else None)
    r.Analyze.diags
  |> List.sort_uniq Stdlib.compare

(* Deep-copy a program so a mutation cannot leak between tests. *)
let clone (p : Program.t) =
  {
    p with
    Program.tiles =
      Array.map
        (fun (tp : Program.tile_program) ->
          {
            tp with
            Program.core_code = Array.map Array.copy tp.core_code;
            tile_code = Array.copy tp.tile_code;
          })
        p.tiles;
  }

(* ---- The zoo analyzes clean ---- *)

let test_zoo_clean () =
  let zoo =
    [
      ("mlp", Network.build_graph Models.mini_mlp, 128);
      ("mlp-32", Network.build_graph Models.mini_mlp, 32);
      ("lstm", Network.build_graph Models.mini_lstm, 128);
      ("rnn", Network.build_graph Models.mini_rnn, 128);
      ("bm", Models.mini_bm, 128);
      ("rbm", Models.mini_rbm, 128);
    ]
  in
  List.iter
    (fun (name, g, dim) ->
      let r = (compile ~dim g).Compile.analysis in
      Alcotest.(check int) (name ^ " errors") 0 r.Analyze.errors;
      (* The range analysis legitimately reports possible fixed-point
         saturation (W-SAT) on real weights; anything else is a false
         positive from the dataflow passes. *)
      Alcotest.(check (list string)) (name ^ " warnings")
        []
        (List.filter_map
           (fun (d : Diag.t) ->
             if d.severity = Diag.Warning && d.code <> "W-SAT" then
               Some d.code
             else None)
           r.Analyze.diags))
    zoo

let test_batch_loop_clean () =
  (* wrap_batch_loop adds Set_sreg/Iadd/Brn control flow: the register
     checks walk the looped path without false positives. *)
  List.iter
    (fun (name, g) ->
      List.iter
        (fun dim ->
          let name = Printf.sprintf "%s@%d" name dim in
          let r = (compile ~dim ~wrap:true g).Compile.analysis in
          Alcotest.(check int) (name ^ " errors") 0 r.Analyze.errors;
          Alcotest.(check (list string)) (name ^ " warnings") []
            (List.filter_map
               (fun (d : Diag.t) ->
                 if d.severity = Diag.Warning && d.code <> "W-SAT" then
                   Some d.code
                 else None)
               r.Analyze.diags))
        [ 64; 128 ])
    [
      ("mlp", mlp ());
      ("lstm", Network.build_graph Models.mini_lstm);
      ("rnn", Network.build_graph Models.mini_rnn);
      ("bm", Models.mini_bm);
      ("rbm", Models.mini_rbm);
    ]

let test_lenet5_imem_overflow () =
  (* Known limitation: lenet5 does not fit the 4 KB core instruction
     memory at any crossbar dim, so the structural pass must say so and
     the semantic passes must skip. *)
  let r =
    (compile (Network.build_graph Models.lenet5)).Compile.analysis
  in
  Alcotest.(check bool) "has errors" true (Analyze.has_errors r);
  Alcotest.(check (list string)) "imem" [ "E-IMEM" ] (error_codes r);
  Alcotest.(check bool) "skipped" true
    (List.exists (fun (d : Diag.t) -> d.code = "I-SKIP") r.Analyze.diags)

let test_compile_gate () =
  match
    Compile.compile (config 128) (Network.build_graph Models.lenet5)
  with
  | _ -> Alcotest.fail "expected the analysis gate to reject lenet5"
  | exception Failure msg ->
      Alcotest.(check bool) "mentions code" true
        (Puma_util.Strings.contains ~sub:"E-IMEM" msg)

(* ---- Mutation corpus: one seeded defect per analysis class ---- *)

let test_mutation_drop_send () =
  let p = clone (compile ~dim:32 (mlp ())).Compile.program in
  let dropped = ref false in
  Array.iter
    (fun (tp : Program.tile_program) ->
      if not !dropped then
        match
          Array.to_list tp.tile_code
          |> List.exists (function Instr.Send _ -> true | _ -> false)
        with
        | false -> ()
        | true ->
            let keep = ref true in
            tp.Program.core_code |> ignore;
            let filtered =
              Array.to_list tp.tile_code
              |> List.filter (fun i ->
                     match i with
                     | Instr.Send _ when !keep ->
                         keep := false;
                         false
                     | _ -> true)
            in
            p.Program.tiles.(tp.tile_index) <-
              { tp with Program.tile_code = Array.of_list filtered };
            dropped := true)
    p.Program.tiles;
  Alcotest.(check bool) "found a send to drop" true !dropped;
  let r = Analyze.program p in
  Alcotest.(check bool) "unmatched receive" true
    (List.mem "E-RECVU" (error_codes r))

let test_mutation_skew_count () =
  let p = clone (compile ~dim:32 (mlp ())).Compile.program in
  let skewed = ref false in
  Array.iter
    (fun (tp : Program.tile_program) ->
      Array.iter
        (fun code ->
          Array.iteri
            (fun pc i ->
              match i with
              | Instr.Store ({ count; _ } as s) when count > 0 && not !skewed
                ->
                  code.(pc) <- Instr.Store { s with count = count + 1 };
                  skewed := true
              | _ -> ())
            code)
        tp.core_code)
    p.Program.tiles;
  Alcotest.(check bool) "found a counted store" true !skewed;
  let r = Analyze.program p in
  Alcotest.(check (list string)) "only consumer-count error" [ "E-CONSUME" ]
    (error_codes r)

let test_mutation_clobber_def () =
  (* Replace one defining instruction with a no-op jump; some later read
     of its destination must trip the def-before-use check. Register
     reuse means not every candidate yields a UBD, so scan for one that
     produces exactly that error. *)
  let base = (compile ~dim:32 (mlp ())).Compile.program in
  let found = ref false in
  Array.iteri
    (fun t (tp : Program.tile_program) ->
      Array.iteri
        (fun c code ->
          Array.iteri
            (fun pc i ->
              if not !found then
                match i with
                | Instr.Alu _ | Instr.Alui _ | Instr.Copy _ ->
                    let p = clone base in
                    p.Program.tiles.(t).Program.core_code.(c).(pc) <-
                      Instr.Jmp { pc = pc + 1 };
                    let r = Analyze.program p in
                    if error_codes r = [ "E-UBD" ] then found := true
                | _ -> ())
            code)
        tp.core_code)
    base.Program.tiles;
  Alcotest.(check bool) "some clobbered def trips E-UBD" true !found

let test_mutation_deadlock () =
  let p = clone (compile ~dim:32 (mlp ())).Compile.program in
  let smem_words = p.Program.config.Config.smem_bytes / 2 in
  (* Fresh fifo id, unused anywhere. *)
  let fresh = ref 0 in
  Program.iter_instrs p (fun i ->
      match i with
      | Instr.Send { fifo_id; _ } | Instr.Receive { fifo_id; _ } ->
          fresh := max !fresh (fifo_id + 1)
      | _ -> ());
  let g = !fresh in
  (* Pick the first cross-tile send: tile a -> tile b. *)
  let edge = ref None in
  Array.iter
    (fun (tp : Program.tile_program) ->
      Array.iter
        (fun i ->
          match i with
          | Instr.Send { target; _ } when !edge = None ->
              edge := Some (tp.tile_index, target)
          | _ -> ())
        tp.tile_code)
    p.Program.tiles;
  let a, b =
    match !edge with
    | Some e -> e
    | None -> Alcotest.fail "mlp at dim 32 should span tiles"
  in
  (* Tile a now first waits for a message on fifo g — which tile b only
     sends after all its own receives, i.e. after a has sent. A classic
     circular wait. *)
  let ta = p.Program.tiles.(a) and tb = p.Program.tiles.(b) in
  p.Program.tiles.(a) <-
    {
      ta with
      Program.tile_code =
        Array.append
          [|
            Instr.Receive
              {
                mem_addr = smem_words - 1;
                fifo_id = g;
                count = 0;
                vec_width = 1;
              };
          |]
          ta.tile_code;
    };
  let strip_halt arr =
    Array.of_list
      (List.filter (fun i -> i <> Instr.Halt) (Array.to_list arr))
  in
  p.Program.tiles.(b) <-
    {
      tb with
      Program.tile_code =
        Array.concat
          [
            strip_halt tb.tile_code;
            [|
              Instr.Send
                {
                  mem_addr = smem_words - 1;
                  fifo_id = g;
                  target = a;
                  vec_width = 1;
                };
              Instr.Halt;
            |];
          ];
    };
  let r = Analyze.program p in
  let codes = error_codes r in
  Alcotest.(check bool) "deadlock reported" true
    (List.mem "E-DEADLOCK" codes);
  let msg =
    List.find
      (fun (d : Diag.t) -> d.code = "E-DEADLOCK")
      r.Analyze.diags
  in
  Alcotest.(check bool) "cycle names both tiles" true
    (Puma_util.Strings.contains ~sub:(Printf.sprintf "tile %d" a)
       msg.Diag.message
    && Puma_util.Strings.contains ~sub:(Printf.sprintf "tile %d" b)
         msg.Diag.message)

let test_mutation_channel_width () =
  let p = clone (compile ~dim:32 (mlp ())).Compile.program in
  let widened = ref false in
  Array.iter
    (fun (tp : Program.tile_program) ->
      Array.iteri
        (fun pc i ->
          match i with
          | Instr.Receive ({ vec_width; _ } as rc) when not !widened ->
              tp.tile_code.(pc) <-
                Instr.Receive { rc with vec_width = vec_width + 1 };
              widened := true
          | _ -> ())
        tp.tile_code)
    p.Program.tiles;
  Alcotest.(check bool) "found a receive" true !widened;
  let r = Analyze.program p in
  Alcotest.(check bool) "width mismatch" true
    (List.mem "E-CHANW" (error_codes r))

let test_mutation_smem_race () =
  (* Redirect one core's store onto a word another core of the same tile
     already writes: the word becomes multi-writer across streams with no
     happens-before edge between the writes. *)
  let p = clone (compile ~dim:32 (mlp ())).Compile.program in
  let seeded = ref false in
  Array.iter
    (fun (tp : Program.tile_program) ->
      if not !seeded then begin
        let first_store = ref None in
        Array.iteri
          (fun c code ->
            Array.iteri
              (fun pc i ->
                match (i, !first_store, !seeded) with
                | Instr.Store { addr = Instr.Imm_addr a; _ }, None, false ->
                    first_store := Some (c, a)
                | Instr.Store ({ addr = Instr.Imm_addr _; _ } as s),
                  Some (c0, a0), false
                  when c <> c0 ->
                    code.(pc) <- Instr.Store { s with addr = Instr.Imm_addr a0 };
                    seeded := true
                | _ -> ())
              code)
          tp.core_code
      end)
    p.Program.tiles;
  Alcotest.(check bool) "seeded a cross-core write pair" true !seeded;
  let r = Analyze.program ~order:true p in
  Alcotest.(check bool) "race reported" true
    (List.mem "E-RACE" (error_codes r))

let test_mutation_fifo_order () =
  (* Seed the rbm@dim64 crash shape on a fresh fifo: a burst of
     width-mismatched sends on one channel, all in flight together
     (pressure 4 > depth 2), with the matching receives afterwards. *)
  let p = clone (compile ~dim:32 (mlp ())).Compile.program in
  let depth = p.Program.config.Config.fifo_depth in
  Alcotest.(check int) "test assumes 2-deep fifos" 2 depth;
  let smem_words = p.Program.config.Config.smem_bytes / 2 in
  let g = ref 0 in
  Program.iter_instrs p (fun i ->
      match i with
      | Instr.Send { fifo_id; _ } | Instr.Receive { fifo_id; _ } ->
          g := max !g (fifo_id + 1)
      | _ -> ());
  let g = !g in
  let edge = ref None in
  Array.iter
    (fun (tp : Program.tile_program) ->
      Array.iter
        (fun i ->
          match i with
          | Instr.Send { target; _ } when !edge = None ->
              edge := Some (tp.tile_index, target)
          | _ -> ())
        tp.tile_code)
    p.Program.tiles;
  let a, b =
    match !edge with
    | Some e -> e
    | None -> Alcotest.fail "mlp at dim 32 should span tiles"
  in
  let widths = [| 2; 1; 2; 1 |] in
  let sends =
    Array.map
      (fun w ->
        Instr.Send
          { mem_addr = smem_words - 8; fifo_id = g; target = b; vec_width = w })
      widths
  in
  let recvs =
    Array.mapi
      (fun k w ->
        Instr.Receive
          {
            mem_addr = smem_words - 8 + (2 * k);
            fifo_id = g;
            count = 0;
            vec_width = w;
          })
      widths
  in
  let ta = p.Program.tiles.(a) and tb = p.Program.tiles.(b) in
  p.Program.tiles.(a) <-
    { ta with Program.tile_code = Array.append sends ta.tile_code };
  p.Program.tiles.(b) <-
    { tb with Program.tile_code = Array.append recvs tb.tile_code };
  let r = Analyze.program ~order:true p in
  Alcotest.(check bool) "over-depth hazard reported" true
    (List.mem "E-FIFO-ORDER" (error_codes r));
  let msg =
    List.find
      (fun (d : Diag.t) -> d.code = "E-FIFO-ORDER")
      r.Analyze.diags
  in
  Alcotest.(check bool) "message names the receive FIFO depth" true
    (Puma_util.Strings.contains ~sub:"2-deep" msg.Diag.message)

(* ---- Synthetic unit tests for the passes ---- *)

let layout = Operand.layout (config 32)
let gpr n = Operand.gpr layout n

(* A one-tile program at dim 32 with the given core streams. *)
let one_tile ?(outputs = []) core_code =
  {
    Program.config = config 32;
    tiles =
      [|
        {
          Program.tile_index = 0;
          core_code;
          tile_code = [| Instr.Halt |];
          mvmu_images = [];
        };
      |];
    inputs = [];
    outputs;
    constants = [];
  }

(* The register checks walk the one path the symbolic run takes through
   a stream, so each case runs through the whole analyzer. *)
let run_regflow code = (Analyze.program (one_tile [| code |])).Analyze.diags

let codes_of diags =
  List.map (fun (d : Diag.t) -> d.code) diags |> List.sort_uniq compare

let test_regflow_ubd () =
  let code =
    [|
      Instr.Alu
        { op = Instr.Relu; dest = gpr 0; src1 = gpr 1; src2 = gpr 1; vec_width = 4 };
      Instr.Halt;
    |]
  in
  Alcotest.(check (list string)) "undefined src" [ "E-UBD"; "W-DEADSTORE" ]
    (codes_of (run_regflow code))

let test_regflow_partial_width () =
  (* Defining 4 words then reading 8 must flag the missing upper half. *)
  let code =
    [|
      Instr.Set { dest = gpr 0; imm = 0 };
      Instr.Copy { dest = gpr 0; src = gpr 0; vec_width = 1 };
      Instr.Store
        { src = gpr 0; addr = Instr.Imm_addr 0; count = 0; vec_width = 2 };
      Instr.Halt;
    |]
  in
  let diags = run_regflow code in
  Alcotest.(check (list string)) "upper word undefined" [ "E-UBD" ]
    (codes_of diags);
  let d = List.hd diags in
  Alcotest.(check (option int)) "at the store" (Some 2) d.Diag.loc.Diag.pc

let test_regflow_branch_join () =
  (* r0 defined on only one arm of a branch: reading it after the join
     is an error; defining it on both arms is fine. *)
  let template both =
    [|
      Instr.Set_sreg { dest = 0; imm = 0 };
      Instr.Brn { op = Instr.Beq; src1 = 0; src2 = 0; pc = 4 };
      Instr.Set { dest = gpr 0; imm = 1 };
      Instr.Jmp { pc = 5 };
      (if both then Instr.Set { dest = gpr 0; imm = 2 }
       else Instr.Alu_int { op = Instr.Iadd; dest = 1; src1 = 0; src2 = 0 });
      Instr.Store
        { src = gpr 0; addr = Instr.Imm_addr 0; count = 0; vec_width = 1 };
      Instr.Halt;
    |]
  in
  Alcotest.(check bool) "one-arm def is flagged" true
    (List.mem "E-UBD" (codes_of (run_regflow (template false))));
  Alcotest.(check bool) "both-arm def is clean" false
    (List.mem "E-UBD" (codes_of (run_regflow (template true))))

let test_regflow_deadstore () =
  let code =
    [|
      Instr.Set { dest = gpr 0; imm = 7 };
      Instr.Set { dest = gpr 1; imm = 8 };
      Instr.Store
        { src = gpr 1; addr = Instr.Imm_addr 0; count = 0; vec_width = 1 };
      Instr.Halt;
    |]
  in
  let diags = run_regflow code in
  Alcotest.(check (list string)) "dead first set" [ "W-DEADSTORE" ]
    (codes_of diags);
  Alcotest.(check (option int)) "at pc 0" (Some 0)
    (List.hd diags).Diag.loc.Diag.pc

let test_regflow_loop_carried () =
  (* A value defined before a loop and consumed inside it on every
     iteration must stay live around the back edge — no UBD, no dead
     store. Mirrors wrap_batch_loop's shape. *)
  let code =
    [|
      Instr.Set { dest = gpr 0; imm = 3 };
      Instr.Set_sreg { dest = 0; imm = 0 };
      Instr.Set_sreg { dest = 1; imm = 1 };
      Instr.Set_sreg { dest = 2; imm = 4 };
      Instr.Copy { dest = gpr 1; src = gpr 0; vec_width = 1 };
      Instr.Alu_int { op = Instr.Iadd; dest = 0; src1 = 0; src2 = 1 };
      Instr.Brn { op = Instr.Blt; src1 = 0; src2 = 2; pc = 4 };
      Instr.Store
        { src = gpr 1; addr = Instr.Imm_addr 0; count = 0; vec_width = 1 };
      Instr.Halt;
    |]
  in
  Alcotest.(check (list string)) "loop is clean" []
    (codes_of (run_regflow code))

let set_r0 = Instr.Set { dest = gpr 0; imm = 1 }

let store ?(count = 0) addr =
  Instr.Store { src = gpr 0; addr; count; vec_width = 1 }

(* A two-core tile where core 0 also stores through a scalar register:
   the tile gets one I-DYNADDR saying that those stores are not
   race-checked, and the race between the two cores' immediate stores is
   still reported. *)
let test_dynamic_addressing () =
  let p =
    one_tile
      ~outputs:
        [ { Program.name = "y"; tile = 0; mem_addr = 10; length = 1; offset = 0 } ]
      [|
        [|
          set_r0;
          Instr.Set_sreg { dest = 0; imm = 20 };
          store (Instr.Sreg_addr 0);
          store (Instr.Imm_addr 10);
          Instr.Halt;
        |];
        [| set_r0; store (Instr.Imm_addr 10); Instr.Halt |];
      |]
  in
  let r = Analyze.program ~order:true p in
  Alcotest.(check (list string)) "race between immediate stores" [ "E-RACE" ]
    (error_codes r);
  match
    List.filter (fun (d : Diag.t) -> d.code = "I-DYNADDR") r.Analyze.diags
  with
  | [ d ] ->
      Alcotest.(check string) "note"
        "info[I-DYNADDR] tile 0: tile uses register-indirect shared-memory \
         addressing: those accesses are not race-checked"
        (Diag.to_string d)
  | ds -> Alcotest.failf "expected one I-DYNADDR, got %d" (List.length ds)

(* Instructions after a linear stream's first Halt never run, so a load
   there consumes nothing: the counted store below is read exactly once. *)
let test_halt_rule () =
  let load =
    Instr.Load { dest = gpr 0; addr = Instr.Imm_addr 0; vec_width = 1 }
  in
  let p =
    one_tile
      [|
        [| set_r0; store ~count:1 (Instr.Imm_addr 0); Instr.Halt |];
        [| load; Instr.Halt; load |];
      |]
  in
  Alcotest.(check (list string)) "no consumer-count error" []
    (error_codes (Analyze.program p))

(* ---- Verdicts that agree with the simulator ----

   One tile: core 0 stores smem[10] and halts, and core 1 loads it
   twice. Whether the program completes depends on the store's consumer
   count and on the address its scalar register holds, which only an
   execution sees; the analyzer's verdict must match Node.run's. *)

let asm source =
  match Puma_isa.Asm.parse_program layout source with
  | Ok code -> code
  | Error e -> Alcotest.fail e

let loads_twice_in_a_loop =
  asm
    "set s0, #0\nset s1, #1\nset s2, #2\n\
     load r0, @10, w=1\n\
     aluint.iadd s0, s0, s1\nbrn.blt s0, s2, 3\nhalt\n"

let loads_twice = asm "load r0, @10, w=1\nload r1, @10, w=1\nhalt\n"

(* Some of [inferences] runs on one node deadlocks, traps
   ([Invalid_argument]) or hits the cycle cap. *)
let simulator_fails ?(inputs = []) ?(inferences = 1) p =
  let node = Puma_sim.Node.create p in
  match
    for _ = 1 to inferences do
      ignore (Puma_sim.Node.run node ~inputs)
    done
  with
  | () -> false
  | exception (Puma_sim.Node.Deadlock _ | Invalid_argument _ | Failure _) ->
      true

let agrees_with_simulator name ~errors p =
  let r = Analyze.program ~ranges:true ~order:true p in
  let completes = not (simulator_fails p) in
  Alcotest.(check bool) (name ^ ": simulator completes") (not errors) completes;
  Alcotest.(check bool)
    (Printf.sprintf "%s: analyzer reports an error (%s)" name
       (String.concat ", " (error_codes r)))
    errors (Analyze.has_errors r)

let test_loop_count_short () =
  agrees_with_simulator "count 1, looped loads" ~errors:true
    (one_tile
       [|
         asm "set r0, #1\nstore @10, r0, count=1, w=1\nhalt\n";
         loads_twice_in_a_loop;
       |])

let test_loop_count_exact () =
  agrees_with_simulator "count 2, looped loads" ~errors:false
    (one_tile
       [|
         asm "set r0, #1\nstore @10, r0, count=2, w=1\nhalt\n";
         loads_twice_in_a_loop;
       |])

let test_indirect_count_short () =
  agrees_with_simulator "count 1 through s3" ~errors:true
    (one_tile
       [|
         asm "set r0, #1\nset s3, #10\nstore @[s3], r0, count=1, w=1\nhalt\n";
         loads_twice;
       |])

(* ---- Register checks along the one executed path ---- *)

let y_at_10 =
  [ { Program.name = "y"; tile = 0; mem_addr = 10; length = 1; offset = 0 } ]

let diags_with code (r : Analyze.report) =
  List.filter (fun (d : Diag.t) -> d.code = code) r.Analyze.diags

let warning_codes (r : Analyze.report) =
  List.filter_map
    (fun (d : Diag.t) ->
      if d.severity = Diag.Warning then Some d.code else None)
    r.Analyze.diags

(* A register-indirect access past the end of shared memory traps the
   runtime. The run reports E-SMEM at it, then stops as for any access it
   cannot model. *)
let indirect_out_of_range access () =
  let capacity = (config 32).Config.smem_bytes / 2 in
  let p =
    one_tile
      [| asm (Printf.sprintf "set s0, #%d\n%s\nhalt\n" (capacity - 8) access) |]
  in
  agrees_with_simulator access ~errors:true p;
  let r = Analyze.program p in
  Alcotest.(check (list (pair string (triple (option int) (option int) (option int)))))
    "E-SMEM where it traps"
    [ ("E-SMEM", (Some 0, Some 0, Some 1)) ]
    (List.filter_map
       (fun (d : Diag.t) ->
         if d.severity = Diag.Error then
           Some (d.code, Diag.(d.loc.tile, d.loc.core, d.loc.pc))
         else None)
       r.Analyze.diags);
  Alcotest.(check int) "the run stopped" 1
    (List.length (diags_with "W-RANGE-PARTIAL" r))

(* ---- Verdict agreement over mutants of compiled programs ----

   One seeded mutation of a compiled mini MLP or LSTM at dim 64: a
   consumer count off by one, a shared-memory access (load, store, send
   or receive) dropped from its stream, or two adjacent tile
   instructions swapped. Each mutant stays structurally valid, and the
   analyzer's verdict must agree with the simulator's over one or two
   inferences on one node: a mutant the simulator cannot finish gets an
   error, and a mutant with a fatal code cannot be finished. *)

type site = { pos : int; core : int option; pc : int }
type mutation = Count of site * int | Drop of site | Swap of site

let fatal_codes = [ "E-RECVU"; "E-RBW"; "E-DEADLOCK"; "E-CHANW"; "E-SMEM" ]

let stream (p : Program.t) s =
  let tp = p.Program.tiles.(s.pos) in
  match s.core with None -> tp.tile_code | Some c -> tp.core_code.(c)

let streams (p : Program.t) =
  List.concat
    (List.init (Array.length p.Program.tiles) (fun pos ->
         let tp = p.Program.tiles.(pos) in
         { pos; core = None; pc = 0 }
         :: List.init (Array.length tp.Program.core_code) (fun c ->
                { pos; core = Some c; pc = 0 })))

(* Every mutation of [p] whose result passes the structural checks: a
   dropped instruction shifts the pcs after it, so only streams without
   jumps or branches lose one. *)
let mutation_sites p =
  List.concat_map
    (fun s ->
      let code = stream p s in
      let linear =
        Array.for_all
          (function Instr.Jmp _ | Instr.Brn _ -> false | _ -> true)
          code
      in
      List.concat
        (List.init (Array.length code) (fun pc ->
             let at = { s with pc } in
             let edits =
               match code.(pc) with
               | Instr.Store { count; _ } | Instr.Receive { count; _ } ->
                   (if linear then [ Drop at ] else [])
                   @ List.filter_map
                       (fun d ->
                         if count + d >= 0 && count + d <= 255 then
                           Some (Count (at, d))
                         else None)
                       [ -1; 1 ]
               | Instr.Load _ | Instr.Send _ when linear -> [ Drop at ]
               | _ -> []
             in
             if
               s.core = None
               && pc + 1 < Array.length code
               && code.(pc) <> Instr.Halt
               && code.(pc + 1) <> Instr.Halt
             then Swap at :: edits
             else edits)))
    (streams p)

let mutate (p : Program.t) m =
  let p = clone p in
  let s, code =
    match m with
    | Count (s, d) ->
        let code = Array.copy (stream p s) in
        (code.(s.pc) <-
           (match code.(s.pc) with
           | Instr.Store st -> Instr.Store { st with count = st.count + d }
           | Instr.Receive r -> Instr.Receive { r with count = r.count + d }
           | i -> i));
        (s, code)
    | Drop s ->
        let code = Array.to_list (stream p s) in
        (s, Array.of_list (List.filteri (fun i _ -> i <> s.pc) code))
    | Swap s ->
        let code = Array.copy (stream p s) in
        let i = code.(s.pc) in
        code.(s.pc) <- code.(s.pc + 1);
        code.(s.pc + 1) <- i;
        (s, code)
  in
  let tp = p.Program.tiles.(s.pos) in
  p.Program.tiles.(s.pos) <-
    (match s.core with
    | None -> { tp with Program.tile_code = code }
    | Some c ->
        let core_code = Array.copy tp.Program.core_code in
        core_code.(c) <- code;
        { tp with Program.core_code });
  p

(* The mutation, the instruction it hits and the mutated stream's
   instructions around it. *)
let describe (name, base, m, inferences) =
  let s, what =
    match m with
    | Count (s, d) -> (s, Printf.sprintf "count %+d" d)
    | Drop s -> (s, "drop")
    | Swap s -> (s, "swap with the next")
  in
  let code = stream (mutate base m) s in
  let layout = Operand.layout base.Program.config in
  Printf.sprintf "%s, %d inference(s): tile %d %s pc %d: %s (%s)\n%s" name
    inferences base.Program.tiles.(s.pos).Program.tile_index
    (match s.core with None -> "tcu" | Some c -> Printf.sprintf "core %d" c)
    s.pc what
    (Asm.instr_to_string layout (stream base s).(s.pc))
    (String.concat "\n"
       (List.filteri
          (fun pc _ -> abs (pc - s.pc) <= 8)
          (List.mapi
             (fun pc i -> Printf.sprintf "%5d  %s" pc (Asm.instr_to_string layout i))
             (Array.to_list code))))

let prop_verdicts_agree =
  let models =
    lazy
      (List.map
         (fun (name, net) ->
           let p = (compile ~dim:64 (Network.build_graph net)).Compile.program in
           (name, p, Array.of_list (mutation_sites p)))
         [ ("mlp", Models.mini_mlp); ("lstm", Models.mini_lstm) ])
  in
  let gen =
    QCheck.Gen.(
      delay (fun () -> oneofl (Lazy.force models)) >>= fun (name, base, sites) ->
      map2
        (fun k n -> (name, base, sites.(k), n))
        (int_bound (Array.length sites - 1))
        (int_range 1 2))
  in
  let shrink (name, base, m, n) =
    QCheck.Iter.(if n > 1 then return (name, base, m, 1) else empty)
  in
  QCheck.Test.make ~name:"mutants: verdicts agree with the simulator"
    ~count:400
    (QCheck.make ~print:describe ~shrink gen)
    (fun (_, base, m, inferences) ->
      let p = mutate base m in
      (match Check.diagnose p with
      | [] -> ()
      | ds ->
          QCheck.Test.fail_reportf "structurally invalid: %s"
            (String.concat ", " (List.map Diag.to_string ds)));
      let rng = Puma_util.Rng.create 7 in
      let inputs =
        List.map
          (fun (name, len) -> (name, Puma_util.Tensor.vec_rand rng len 0.8))
          (Puma_runtime.Batch.input_lengths p)
      in
      let fails = simulator_fails ~inputs ~inferences p in
      let codes = error_codes (Analyze.program p) in
      let fatal = List.filter (fun c -> List.mem c fatal_codes) codes in
      if fails && codes = [] then
        QCheck.Test.fail_report "the simulator fails, but no error is reported";
      if fatal <> [] && not fails then
        QCheck.Test.fail_reportf "the simulator finishes despite %s"
          (String.concat ", " fatal);
      true)

(* [brn.beq s0, s0] is always taken, so its taken arm's [set r0] is on
   the only path to the store, and pcs 2 and 3 never run. *)
let test_always_taken () =
  let p =
    one_tile ~outputs:y_at_10
      [|
        asm
          "set s0, #0\nbrn.beq s0, s0, 4\naluint.iadd s1, s0, s0\njmp 5\n\
           set r0, #2\nstore @10, r0, count=0, w=1\nhalt\n";
      |]
  in
  agrees_with_simulator "always-taken branch" ~errors:false p;
  Alcotest.(check (list (pair string (array (float 0.)))))
    "y" [ ("y", [| 2. /. 4096. |]) ]
    (Puma_sim.Node.run (Puma_sim.Node.create p) ~inputs:[]);
  let r = Analyze.program ~ranges:true ~order:true p in
  Alcotest.(check (list string)) "no warnings" [] (warning_codes r);
  match diags_with "I-UNREACH" r with
  | [ d ] ->
      Alcotest.(check string) "the untaken arm"
        "info[I-UNREACH] tile 0 core 0 pc 2: 2 instruction(s) never \
         executed: the stream's one path skips them"
        (Diag.to_string d)
  | ds -> Alcotest.failf "expected one I-UNREACH, got %d" (List.length ds)

(* The only read of r2 is on the arm the branch never falls into, so the
   write is dead on the path the stream takes. *)
let test_read_on_untaken_arm () =
  let r =
    Analyze.program ~ranges:true ~order:true
      (one_tile ~outputs:y_at_10
         [|
           asm
             "set s0, #0\nset r0, #1\nset r2, #5\nbrn.beq s0, s0, 5\n\
              copy r0, r2, w=1\nstore @10, r0, count=0, w=1\nhalt\n";
         |])
  in
  Alcotest.(check (list string)) "no errors" [] (error_codes r);
  Alcotest.(check (list (pair string (option int))))
    "dead write of r2"
    [ ("W-DEADSTORE", Some 2) ]
    (List.map
       (fun (d : Diag.t) -> (d.code, d.Diag.loc.Diag.pc))
       (diags_with "W-DEADSTORE" r))

(* Tiles 0 and 1 both send on tile 2's fifo 0, so the run stops at the
   second sender. By then core 0 of tile 0 has written r1, which it
   never reads, and is blocked at a load: its later instructions might
   still read r1 or run, so it gets neither W-DEADSTORE nor I-UNREACH,
   and the one W-RANGE-PARTIAL says what is left unchecked. *)
let test_stopped_run () =
  let tile tile_index core_code tile_code =
    {
      Program.tile_index;
      core_code;
      tile_code = asm tile_code;
      mvmu_images = [];
    }
  in
  let word tile =
    let name = Printf.sprintf "c%d" tile in
    ({ Program.name; tile; mem_addr = 0; length = 1; offset = 0 }, [| 1 |])
  in
  let send = "send @0 -> tile2 fifo0, w=1\nhalt\n" in
  let p =
    {
      Program.config = config 32;
      tiles =
        [|
          tile 0 [| asm "set r1, #5\nload r0, @20, w=1\nhalt\n" |] send;
          tile 1 [||] send;
          tile 2 [||]
            "receive fifo0 -> @0, count=0, w=1\n\
             receive fifo0 -> @1, count=0, w=1\nhalt\n";
        |];
      inputs = [];
      outputs = [];
      constants = [ word 0; word 1 ];
    }
  in
  let r = Analyze.program ~ranges:true ~order:true p in
  Alcotest.(check int) "no W-DEADSTORE or I-UNREACH" 0
    (List.length (diags_with "W-DEADSTORE" r @ diags_with "I-UNREACH" r));
  match diags_with "W-RANGE-PARTIAL" r with
  | [ d ] ->
      Alcotest.(check bool) "names the register checks" true
        (Puma_util.Strings.contains ~sub:"the register checks" d.Diag.message)
  | ds ->
      Alcotest.failf "expected one W-RANGE-PARTIAL, got %d" (List.length ds)

(* The second counted store of smem[10] blocks over the first one's
   unread word: one E-CONSUME, at the blocked store, names the pair. *)
let test_blocked_store_reported_once () =
  let r =
    Analyze.program
      (one_tile
         [|
           asm
             "set r0, #1\nstore @10, r0, count=1, w=1\n\
              store @10, r0, count=1, w=1\nhalt\n";
         |])
  in
  Alcotest.(check (list (pair string (option int))))
    "one E-CONSUME"
    [ ("E-CONSUME", Some 2) ]
    (List.filter_map
       (fun (d : Diag.t) ->
         if d.severity = Diag.Error then Some (d.code, d.Diag.loc.Diag.pc)
         else None)
       r.Analyze.diags)

(* A program past the happens-before graph's 16,384-event cap: core 0 of
   tile 0 stores 8,200 counted words that core 1 loads once each, and
   tile 0 sends one constant word to tile 1. The graph leaves the core
   events out, but the run's channel and consumer-count checks still see
   every event. *)
let test_event_cap () =
  let k = 8200 in
  let config = { Config.sweetspot with imem_core_bytes = 1 lsl 20 } in
  let gpr0 = Operand.gpr (Operand.layout config) 0 in
  let program ~count0 ~send =
    let producer =
      Array.concat
        [
          [| Instr.Set { dest = gpr0; imm = 1 } |];
          Array.init k (fun a ->
              Instr.Store
                {
                  src = gpr0;
                  addr = Instr.Imm_addr a;
                  count = (if a = 0 then count0 else 1);
                  vec_width = 1;
                });
          [| Instr.Halt |];
        ]
    in
    let consumer =
      Array.append
        (Array.init k (fun a ->
             Instr.Load { dest = gpr0; addr = Instr.Imm_addr a; vec_width = 1 }))
        [| Instr.Halt |]
    in
    let tile tile_index core_code tile_code =
      { Program.tile_index; core_code; tile_code; mvmu_images = [] }
    in
    let binding name tile mem_addr =
      { Program.name; tile; mem_addr; length = 1; offset = 0 }
    in
    {
      Program.config;
      tiles =
        [|
          tile 0 [| producer; consumer |]
            (Array.append
               (if send then
                  [|
                    Instr.Send
                      { mem_addr = k; fifo_id = 0; target = 1; vec_width = 1 };
                  |]
                else [||])
               [| Instr.Halt |]);
          tile 1 [||]
            [|
              Instr.Receive { mem_addr = 0; fifo_id = 0; count = 0; vec_width = 1 };
              Instr.Halt;
            |];
        |];
      inputs = [];
      outputs = [ binding "y" 1 0 ];
      constants = [ (binding "c" 0 k, [| 1 |]) ];
    }
  in
  let clean = Analyze.program ~order:true (program ~count0:1 ~send:true) in
  Alcotest.(check (list string)) "clean" [] (error_codes clean);
  Alcotest.(check bool) "race detection skipped" true
    (List.exists
       (fun (d : Diag.t) ->
         d.code = "I-ORDER"
         && Puma_util.Strings.contains
              ~sub:"race detection skipped (channel analysis kept)"
              d.Diag.message)
       clean.Analyze.diags);
  Alcotest.(check (list string)) "skewed count" [ "E-CONSUME" ]
    (error_codes (Analyze.program ~order:true (program ~count0:2 ~send:true)));
  Alcotest.(check bool) "dropped send" true
    (List.mem "E-RECVU"
       (error_codes (Analyze.program ~order:true (program ~count0:1 ~send:false))))

(* ---- Diag plumbing ---- *)

let test_diag_render () =
  let d = Diag.error ~code:"E-X" ~tile:1 ~core:2 ~pc:3 "bad %s" "thing" in
  Alcotest.(check string) "text" "error[E-X] tile 1 core 2 pc 3: bad thing"
    (Diag.to_string d);
  let j =
    Puma_util.Json.to_string
      (Diag.to_json (Diag.warning ~code:"W-Y" ~tile:0 "say \"hi\""))
  in
  Alcotest.(check bool) "json escapes" true
    (Puma_util.Strings.contains ~sub:"\\\"hi\\\"" j);
  Alcotest.(check bool) "json severity" true
    (Puma_util.Strings.contains ~sub:"\"severity\":\"warning\"" j);
  Alcotest.(check bool) "json null loc" true
    (Puma_util.Strings.contains ~sub:"\"core\":null" j)

let test_diag_order () =
  let a = Diag.error ~code:"E-A" ~tile:0 ~core:0 ~pc:5 "x" in
  let b = Diag.warning ~code:"W-B" ~tile:0 ~core:0 ~pc:2 "x" in
  let c = Diag.info ~code:"I-C" "x" in
  let sorted = List.sort Diag.compare [ a; b; c ] in
  Alcotest.(check (list string)) "location-major order"
    [ "I-C"; "W-B"; "E-A" ]
    (List.map (fun (d : Diag.t) -> d.Diag.code) sorted)

let test_check_diagnose () =
  (* Check.diagnose is the one structural-lint entry point; its findings
     render through the shared Diag location formatter. *)
  let p = clone (compile ~dim:32 (mlp ())).Compile.program in
  p.Program.tiles.(0).Program.core_code.(0).(0) <-
    Instr.Set { dest = 100_000; imm = 0 };
  match Check.diagnose p with
  | [] -> Alcotest.fail "expected a diagnostic"
  | (d : Diag.t) :: _ ->
      Alcotest.(check string) "code" "E-REG" d.Diag.code;
      Alcotest.(check bool) "rendered loc names the core" true
        (Puma_util.Strings.contains ~sub:"tile 0 core 0"
           (Diag.to_string d))

let test_check_mvm_args () =
  (* MVM filter and stride are 8-bit fields; a negative stride used to
     pass every gate and then index out of bounds in the simulator. *)
  let p = (compile ~dim:32 (mlp ())).Compile.program in
  let codes filter stride =
    let q = clone p in
    let code = q.Program.tiles.(0).Program.core_code.(0) in
    let pc = ref (-1) in
    Array.iteri
      (fun k -> function
        | Instr.Mvm _ when !pc < 0 -> pc := k
        | _ -> ())
      code;
    (match code.(!pc) with
    | Instr.Mvm m -> code.(!pc) <- Instr.Mvm { m with filter; stride }
    | _ -> assert false);
    List.map (fun (d : Diag.t) -> d.Diag.code) (Check.diagnose q)
  in
  Alcotest.(check (list string)) "in range" [] (codes 255 255);
  Alcotest.(check (list string)) "negative stride" [ "E-MVMARG" ] (codes 0 (-1));
  Alcotest.(check (list string)) "wide filter" [ "E-MVMARG" ] (codes 256 0)

let test_check_images () =
  (* E-IMAGE covers every way an image can miss its MVMU: an index that
     names no core or MVMU, a length that is not 2 * dim * dim bytes,
     and a second image for an MVMU that already has one. *)
  let p = (compile ~dim:64 (mlp ())).Compile.program in
  let codes f =
    let tp = p.Program.tiles.(0) in
    let q = clone p in
    q.Program.tiles.(0) <-
      { tp with Program.mvmu_images = f tp.Program.mvmu_images };
    List.map (fun (d : Diag.t) -> d.Diag.code) (Check.diagnose q)
  in
  let first = function
    | (im : Program.mvmu_image) :: rest -> (im, rest)
    | [] -> Alcotest.fail "tile 0 has no images"
  in
  Alcotest.(check (list string)) "as compiled" [] (codes Fun.id);
  Alcotest.(check (list string)) "duplicated" [ "E-IMAGE" ]
    (codes (fun ims -> ims @ [ fst (first ims) ]));
  Alcotest.(check (list string)) "short image" [ "E-IMAGE" ]
    (codes (fun ims ->
         let im, rest = first ims in
         let n = String.length im.Program.image in
         { im with Program.image = String.sub im.Program.image 0 (n - 2) }
         :: rest));
  Alcotest.(check (list string)) "no such mvmu" [ "E-IMAGE" ]
    (codes (fun ims ->
         let im, rest = first ims in
         { im with Program.mvmu_index = p.Program.config.mvmus_per_core }
         :: rest));
  Alcotest.(check (list string)) "no such core" [ "E-IMAGE" ]
    (codes (fun ims ->
         let im, rest = first ims in
         { im with Program.core_index = -1 } :: rest))

let test_report_json () =
  let r = (compile ~dim:32 (mlp ())).Compile.analysis in
  let j = Analyze.to_json ~name:"mlp" r in
  Alcotest.(check bool) "name" true
    (Puma_util.Strings.contains ~sub:"\"name\":\"mlp\"" j);
  Alcotest.(check bool) "errors" true
    (Puma_util.Strings.contains ~sub:"\"errors\":0" j)

(* The gates keep no module-level state: two programs analyzed from two
   domains at once get exactly their serial reports. *)
let test_parallel_domains () =
  let jobs =
    [|
      ("mlp", compile (mlp ()));
      ("rbm@64", compile ~dim:64 Models.mini_rbm);
    |]
  in
  let analyze (_, (r : Compile.result)) =
    Analyze.to_json
      (Analyze.program ~ranges:true ~resources:true ~order:true
         ~dump_ranges:true ~dump_hb:true ~equiv:r.Compile.equiv_reference
         r.Compile.program)
  in
  let serial = Array.map analyze jobs in
  let parallel = Array.make (Array.length jobs) "" in
  Puma_util.Pool.parallel_for ~domains:2 ~n:(Array.length jobs) (fun i ->
      parallel.(i) <- analyze jobs.(i));
  Array.iteri
    (fun i (name, _) ->
      Alcotest.(check string) (name ^ " report") serial.(i) parallel.(i))
    jobs

(* ---- The symbolic run trusts Check ---- *)

(* y = W x on one core at dim 32, W = I / 2. The MVM's stride is an
   8-bit field and the crossbar reads input (j + stride) mod dim, so
   strides of dim and dim + 1 are as well formed as 0 and 1. *)
let stride_program stride =
  let binding name mem_addr =
    { Program.name; tile = 0; mem_addr; length = 32; offset = 0 }
  in
  {
    Program.config = config 32;
    tiles =
      [|
        {
          Program.tile_index = 0;
          core_code =
            [|
              asm
                (Printf.sprintf
                   "load xin0[0], @0, w=32\n\
                    mvm mask=0x01 filter=0 stride=%d\n\
                    copy r0, xout0[0], w=32\n\
                    store @32, r0, count=0, w=32\nhalt\n"
                   stride);
            |];
          tile_code = [||];
          mvmu_images =
            [
              {
                Program.core_index = 0;
                mvmu_index = 0;
                image =
                  Puma_util.Fixed.image_of_mat
                    (Puma_util.Tensor.mat_init 32 32 (fun i j ->
                         if i = j then 0.5 else 0.0));
              };
            ];
        };
      |];
    inputs = [ binding "x" 0 ];
    outputs = [ binding "y" 32 ];
    constants = [];
  }

let test_stride_past_dim () =
  let cost p =
    List.map Diag.to_string
      (diags_with "I-COST"
         (Analyze.program ~ranges:true ~resources:true ~order:true p))
  in
  let stride1 = cost (stride_program 1) in
  Alcotest.(check bool) "stride 1 has a cost bound" true (stride1 <> []);
  let x = Array.init 32 (fun j -> Float.of_int (j + 1) /. 64.0) in
  List.iter
    (fun stride ->
      let name = Printf.sprintf "stride %d" stride in
      let p = stride_program stride in
      Alcotest.(check (list string)) (name ^ ": Check-clean") []
        (List.map Diag.to_string (Check.diagnose p));
      let r = Analyze.program ~ranges:true ~resources:true ~order:true p in
      Alcotest.(check (list string)) (name ^ ": no W-RANGE-PARTIAL") []
        (List.map Diag.to_string (diags_with "W-RANGE-PARTIAL" r));
      Alcotest.(check (list string)) (name ^ ": cost of stride 1") stride1
        (cost p);
      Alcotest.(check (array (float 1e-9)))
        (name ^ ": y[j] = x[(j + stride) mod 32] / 2")
        (Array.init 32 (fun j -> x.((j + stride) mod 32) /. 2.0))
        (List.assoc "y"
           (Puma_sim.Node.run (Puma_sim.Node.create p) ~inputs:[ ("x", x) ])))
    [ 32; 33 ]

(* A program Check rejects is not executed: the run stops before its
   first step, and the one W-EQUIV-UNKNOWN names the code. *)
let test_check_error_stops_run () =
  let p =
    one_tile
      [|
        [| Instr.Copy { dest = gpr 0; src = gpr 126; vec_width = 4 }; Instr.Halt |];
      |]
  in
  let r = Analyze.program ~equiv:[||] p in
  Alcotest.(check (list string)) "the structural error" [ "E-REG" ]
    (error_codes r);
  match diags_with "W-EQUIV-UNKNOWN" r with
  | [ d ] ->
      Alcotest.(check bool) "names E-REG" true
        (Puma_util.Strings.contains ~sub:"E-REG" d.Diag.message)
  | ds ->
      Alcotest.failf "expected one W-EQUIV-UNKNOWN, got %d" (List.length ds)

(* One symbolic run serves the value ranges, the cost bound and the
   translation validation: comparing against a reference changes no
   other line of the report, over the zoo analyze --all covers. *)
let test_ranges_without_equiv () =
  let options =
    {
      Compile.default_options with
      analysis_gate = false;
      check_equiv = false;
      static_analysis = false;
    }
  in
  let others (r : Analyze.report) =
    List.filter_map
      (fun (d : Diag.t) ->
        if List.mem d.code [ "I-EQUIV"; "E-EQUIV"; "W-EQUIV-UNKNOWN" ] then None
        else Some (Diag.to_string d))
      r.Analyze.diags
  in
  List.iter
    (fun dim ->
      List.iter
        (fun (name, g) ->
          let r = Compile.compile ~options (config dim) g in
          let analyze ?equiv () =
            Analyze.program ~ranges:true ~resources:true ~order:true ?equiv
              ~layer_of:r.Compile.layer_of r.Compile.program
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s@%d" name dim)
            (others (analyze ()))
            (others (analyze ~equiv:r.Compile.equiv_reference ())))
        [
          ("mlp", mlp ());
          ("lstm", Network.build_graph Models.mini_lstm);
          ("rnn", Network.build_graph Models.mini_rnn);
          ("lenet5", Network.build_graph Models.lenet5);
          ("bm", Models.mini_bm);
          ("rbm", Models.mini_rbm);
        ])
    [ 64; 128 ]

let () =
  Alcotest.run "analysis"
    [
      ( "clean",
        [
          Alcotest.test_case "zoo" `Quick test_zoo_clean;
          Alcotest.test_case "batch loop" `Quick test_batch_loop_clean;
          Alcotest.test_case "lenet5 imem" `Quick test_lenet5_imem_overflow;
          Alcotest.test_case "compile gate" `Quick test_compile_gate;
          Alcotest.test_case "parallel domains" `Quick test_parallel_domains;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "drop send" `Quick test_mutation_drop_send;
          Alcotest.test_case "skew count" `Quick test_mutation_skew_count;
          Alcotest.test_case "clobber def" `Quick test_mutation_clobber_def;
          Alcotest.test_case "deadlock" `Quick test_mutation_deadlock;
          Alcotest.test_case "smem race" `Quick test_mutation_smem_race;
          Alcotest.test_case "fifo order" `Quick test_mutation_fifo_order;
          Alcotest.test_case "channel width" `Quick
            test_mutation_channel_width;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            prop_verdicts_agree;
        ] );
      ( "passes",
        [
          Alcotest.test_case "ubd" `Quick test_regflow_ubd;
          Alcotest.test_case "partial width" `Quick
            test_regflow_partial_width;
          Alcotest.test_case "branch join" `Quick test_regflow_branch_join;
          Alcotest.test_case "dead store" `Quick test_regflow_deadstore;
          Alcotest.test_case "loop carried" `Quick
            test_regflow_loop_carried;
          Alcotest.test_case "dynamic addressing" `Quick
            test_dynamic_addressing;
          Alcotest.test_case "halt rule" `Quick test_halt_rule;
          Alcotest.test_case "looped loads, count short" `Quick
            test_loop_count_short;
          Alcotest.test_case "looped loads, count exact" `Quick
            test_loop_count_exact;
          Alcotest.test_case "indirect store, count short" `Quick
            test_indirect_count_short;
          Alcotest.test_case "event cap" `Quick test_event_cap;
          Alcotest.test_case "always-taken branch" `Quick test_always_taken;
          Alcotest.test_case "read on the untaken arm" `Quick
            test_read_on_untaken_arm;
          Alcotest.test_case "stopped run" `Quick test_stopped_run;
          Alcotest.test_case "blocked store reported once" `Quick
            test_blocked_store_reported_once;
          Alcotest.test_case "indirect load out of range" `Quick
            (indirect_out_of_range "load r0, @[s0], w=16");
          Alcotest.test_case "indirect store out of range" `Quick
            (indirect_out_of_range "store @[s0], r0, count=0, w=16");
          Alcotest.test_case "mvm stride past the dim" `Quick
            test_stride_past_dim;
          Alcotest.test_case "check error stops the run" `Quick
            test_check_error_stops_run;
          Alcotest.test_case "ranges and bounds without equiv" `Quick
            test_ranges_without_equiv;
        ] );
      ( "diag",
        [
          Alcotest.test_case "render" `Quick test_diag_render;
          Alcotest.test_case "order" `Quick test_diag_order;
          Alcotest.test_case "check diagnose" `Quick test_check_diagnose;
          Alcotest.test_case "check mvm args" `Quick test_check_mvm_args;
          Alcotest.test_case "check images" `Quick test_check_images;
          Alcotest.test_case "report json" `Quick test_report_json;
        ] );
    ]
