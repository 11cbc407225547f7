(* Translation-validation tests: the whole model zoo proves equivalent to
   its source dataflow (at the sweetspot crossbar dimension and the
   bench's dim 64, with and without the Sequencing repair pass, and with
   a nonzero fault-remap plan installed), a miscompilation mutation
   corpus is refuted with the stable E-EQUIV code, and a property ties
   the validator to the simulator: random graphs compiled under random
   option toggles always prove, and proved programs are bit-identical to
   the reference compilation when simulated. *)

module B = Puma_graph.Builder
module Tensor = Puma_util.Tensor
module Rng = Puma_util.Rng
module Analyze = Puma_analysis.Analyze
module Diag = Puma_analysis.Diag
module Equiv = Puma_analysis.Equiv
module Instr = Puma_isa.Instr
module Program = Puma_isa.Program
module Compile = Puma_compiler.Compile
module Config = Puma_hwmodel.Config
module Models = Puma_nn.Models
module Network = Puma_nn.Network
module Node = Puma_sim.Node
module Batch = Puma_runtime.Batch
module Fault = Puma_xbar.Fault
module Remap = Puma_fault.Remap

let config dim = { Config.sweetspot with Config.mvmu_dim = dim }

(* Gate off so lenet5 (E-IMEM) and unrepaired configurations still hand
   back a result; the validator itself always runs. *)
let compile ?(dim = 32) ?(repair = true) ?(wrap = false) g =
  let options =
    {
      Compile.default_options with
      Compile.analysis_gate = false;
      repair_ordering = repair;
      wrap_batch_loop = wrap;
    }
  in
  Compile.compile ~options (config dim) g

let equiv_of (r : Compile.result) =
  match r.Compile.equiv with
  | Some e -> e
  | None -> Alcotest.fail "compile did not run the validator"

let zoo () =
  [
    ("mlp", Network.build_graph Models.mini_mlp);
    ("lstm", Network.build_graph Models.mini_lstm);
    ("rnn", Network.build_graph Models.mini_rnn);
    ("lenet5", Network.build_graph Models.lenet5);
    ("bm", Models.mini_bm);
    ("rbm", Models.mini_rbm);
  ]

let check_proved name (e : Equiv.result) =
  (match e.Equiv.verdict with
  | Equiv.Proved -> ()
  | Refuted | Unknown ->
      Alcotest.failf "%s: verdict is not Proved:\n%s" name
        (String.concat "\n"
           (List.map Diag.to_string e.Equiv.diags)));
  Alcotest.(check int) (name ^ ": no mismatched words") 0
    e.Equiv.mismatched_words;
  Alcotest.(check bool) (name ^ ": checked some output words") true
    (e.Equiv.output_words > 0)

(* ---- The zoo proves, under every configuration we ship ---- *)

let test_zoo_proved_sweetspot () =
  List.iter
    (fun (name, g) -> check_proved name (equiv_of (compile ~dim:128 g)))
    (zoo ())

let test_zoo_proved_dim64 () =
  List.iter
    (fun (name, g) ->
      check_proved (name ^ "@64") (equiv_of (compile ~dim:64 g)))
    (zoo ())

let test_zoo_proved_unrepaired () =
  (* The validator models per-channel NoC delivery in order, as the NoC
     delivers, so even the programs the Sequencing pass would repair
     (rbm@64's over-depth channels) prove: E-FIFO-ORDER is a buffering
     property, not a dataflow one. *)
  List.iter
    (fun (name, g) ->
      check_proved
        (name ^ "@64,no-repair")
        (equiv_of (compile ~dim:64 ~repair:false g)))
    (zoo ())

let test_batch_loop_proved () =
  (* Batch-loop control flow executes concretely (scalar registers are
     exact), so the wrapped program proves too. *)
  check_proved "mlp+batch-loop"
    (equiv_of (compile ~wrap:true (Network.build_graph Models.mini_mlp)))

let test_remap_plan_orthogonal () =
  (* A fault-remap plan permutes crossbar lines outside Program.t and is
     exact in ideal arithmetic: building one (with real faults realized)
     must not perturb validation of the same program. *)
  let r = compile ~dim:64 (Network.build_graph Models.mini_mlp) in
  let plan =
    Remap.build ~remap:true
      ~model:{ Fault.ideal with Fault.stuck_rate = 0.02 }
      ~seed:11 r.Compile.program
  in
  Alcotest.(check bool) "plan realizes faults" true
    (plan.Remap.total_faults > 0);
  Alcotest.(check bool) "plan remaps stacks" true
    (plan.Remap.remapped_mvmus > 0);
  check_proved "mlp@64+remap"
    (Equiv.check ~reference:r.Compile.equiv_reference r.Compile.program)

(* ---- Mutation corpus: one seeded miscompilation per defect class ---- *)

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

(* Every refutation must carry the stable code and name the output it
   falsifies (location points at the writer when one exists). *)
let check_refuted name (e : Equiv.result) =
  Alcotest.(check bool) (name ^ ": refuted") true
    (e.Equiv.verdict = Equiv.Refuted);
  let errs =
    List.filter
      (fun (d : Diag.t) -> d.Diag.code = "E-EQUIV")
      e.Equiv.diags
  in
  Alcotest.(check bool) (name ^ ": E-EQUIV reported") true (errs <> []);
  Alcotest.(check bool) (name ^ ": mismatch names the output") true
    (List.for_all
       (fun (d : Diag.t) ->
         Puma_util.Strings.contains ~sub:"output" d.Diag.message)
       errs)

(* Apply [mutate pc instr] to every core-instruction site in turn (on a
   fresh clone each time) until one revalidates as Refuted; not every
   site falsifies an output (dead code, values masked by later defs,
   undefined reads degrade to Unknown), so scan. *)
let scan_refute name reference base mutate =
  let found = ref None in
  Array.iteri
    (fun t (tp : Program.tile_program) ->
      Array.iteri
        (fun c code ->
          Array.iteri
            (fun pc i ->
              if !found = None then
                match mutate pc i with
                | None -> ()
                | Some i' ->
                    let p = clone base in
                    p.Program.tiles.(t).Program.core_code.(c).(pc) <- i';
                    let e = Equiv.check ~reference p in
                    if e.Equiv.verdict = Equiv.Refuted then found := Some e)
            code)
        tp.core_code)
    base.Program.tiles;
  match !found with
  | Some e -> check_refuted name e
  | None -> Alcotest.failf "%s: no mutation site was refuted" name

let compiled = lazy (compile ~dim:32 (Network.build_graph Models.mini_rnn))

let test_mutation_dropped_glue () =
  let r = Lazy.force compiled in
  scan_refute "dropped glue copy" r.Compile.equiv_reference
    r.Compile.program (fun pc i ->
      match i with
      | Instr.Copy _ -> Some (Instr.Jmp { pc = pc + 1 })
      | _ -> None)

let test_mutation_stale_register () =
  (* A register-allocator lifetime bug: a binary ALU reads a stale
     (still defined, wrong) register instead of one of its operands. *)
  let r = Lazy.force compiled in
  scan_refute "stale register reuse" r.Compile.equiv_reference
    r.Compile.program (fun _pc i ->
      match i with
      | Instr.Alu ({ op; src1; src2; _ } as a)
        when Instr.alu_op_arity op = 2 && src1 <> src2 ->
          Some (Instr.Alu { a with src1 = src2 })
      | _ -> None)

let test_mutation_coalesce_mask () =
  (* Coalescing off by one: drop one MVMU from a multi-MVMU mask. The
     skipped crossbar's output registers keep their previous contents,
     so a reused slot feeds a stale product downstream. *)
  let r = Lazy.force compiled in
  scan_refute "coalesce mask off-by-one" r.Compile.equiv_reference
    r.Compile.program (fun _pc i ->
      match i with
      | Instr.Mvm ({ mask; _ } as m) when mask land (mask - 1) <> 0 ->
          Some (Instr.Mvm { m with mask = mask land (mask - 1) })
      | _ -> None)

let test_mutation_wrong_lut () =
  let r = Lazy.force compiled in
  scan_refute "wrong LUT" r.Compile.equiv_reference r.Compile.program
    (fun _pc i ->
      match i with
      | Instr.Alu ({ op = Instr.Tanh; _ } as a) ->
          Some (Instr.Alu { a with op = Instr.Sigmoid })
      | Instr.Alu ({ op = Instr.Sigmoid; _ } as a) ->
          Some (Instr.Alu { a with op = Instr.Tanh })
      | _ -> None)

let test_mutation_swapped_matrices () =
  (* Two crossbars programmed with each other's weights: scan image
     pairs with differing content until validation refutes (pairs whose
     difference sits entirely under dead padding lanes can still
     prove). *)
  let r = Lazy.force compiled in
  let base = r.Compile.program in
  let images =
    Array.to_list base.Program.tiles
    |> List.concat_map (fun (tp : Program.tile_program) ->
           List.map (fun im -> (tp.Program.tile_index, im)) tp.mvmu_images)
  in
  let swap (t1, (i1 : Program.mvmu_image)) (t2, (i2 : Program.mvmu_image)) =
    let p = clone base in
    let replace t ~core ~mvmu w =
      let tp = p.Program.tiles.(t) in
      p.Program.tiles.(t) <-
        {
          tp with
          Program.mvmu_images =
            List.map
              (fun (im : Program.mvmu_image) ->
                if im.Program.core_index = core && im.Program.mvmu_index = mvmu
                then { im with Program.image = w }
                else im)
              tp.Program.mvmu_images;
        }
    in
    replace t1 ~core:i1.Program.core_index ~mvmu:i1.Program.mvmu_index
      i2.Program.image;
    replace t2 ~core:i2.Program.core_index ~mvmu:i2.Program.mvmu_index
      i1.Program.image;
    p
  in
  let found = ref None in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun b ->
            if
              !found = None
              && (snd a).Program.image <> (snd b).Program.image
            then begin
              let e =
                Equiv.check ~reference:r.Compile.equiv_reference (swap a b)
              in
              if e.Equiv.verdict = Equiv.Refuted then found := Some e
            end)
          rest;
        if !found = None then pairs rest
  in
  pairs images;
  match !found with
  | Some e -> check_refuted "swapped matrices" e
  | None -> Alcotest.fail "swapped matrices: no image pair was refuted"

(* ---- Property: random graphs × random options always prove, and a
   proved program is bit-identical to the reference compilation ---- *)

let random_mlp n_in n_h seed =
  let rng = Rng.create (seed + 1) in
  let m = B.create "rand-mlp" in
  let x = B.input m ~name:"x" ~len:n_in in
  let w1 = B.const_matrix m ~name:"W1" (Tensor.mat_rand rng n_h n_in 0.1) in
  let w2 = B.const_matrix m ~name:"W2" (Tensor.mat_rand rng 8 n_h 0.1) in
  B.output m ~name:"y"
    (B.sigmoid m (B.mvm m w2 (B.sigmoid m (B.mvm m w1 x))));
  B.finish m

let random_rnn n_in n_h seed =
  let rng = Rng.create (seed + 2) in
  let m = B.create "rand-rnn" in
  let x = B.input m ~name:"x" ~len:n_in in
  let wx = B.const_matrix m ~name:"Wx" (Tensor.mat_rand rng n_h n_in 0.1) in
  let wh = B.const_matrix m ~name:"Wh" (Tensor.mat_rand rng n_h n_h 0.1) in
  let h = ref (B.tanh m (B.mvm m wx x)) in
  for _ = 1 to 2 do
    h := B.tanh m (B.add m (B.mvm m wh !h) (B.mvm m wx x))
  done;
  B.output m ~name:"y" !h;
  B.finish m

let simulate program ~seed =
  let node = Node.create ~noise_seed:3 program in
  let rng = Rng.create seed in
  let inputs =
    List.map
      (fun (name, len) -> (name, Tensor.vec_rand rng len 0.8))
      (Batch.input_lengths program)
  in
  List.sort compare (Node.run node ~inputs)

(* Derive the four orthogonal toggles from one generated integer so
   qcheck shrinks toward all-off. *)
let agree graph toggles =
  let options =
    {
      Compile.default_options with
      Compile.coalesce_mvms = toggles land 1 <> 0;
      optimize_graph = toggles land 2 <> 0;
      wrap_batch_loop = toggles land 4 <> 0;
      repair_ordering = toggles land 8 <> 0;
      analysis_gate = false;
    }
  in
  let r = Compile.compile ~options (config 32) graph in
  let proved =
    match r.Compile.equiv with
    | Some e -> e.Equiv.verdict = Equiv.Proved
    | None -> false
  in
  (* The validated program must also agree concretely with the reference
     compilation (default options) on random inputs: the sweetspot
     config is noise-free, so structural equivalence implies bit-equal
     simulation. *)
  let reference = compile ~dim:32 graph in
  proved
  && simulate r.Compile.program ~seed:77
     = simulate reference.Compile.program ~seed:77

let spec_gen =
  QCheck.(
    quad (int_range 8 40) (int_range 8 40) (int_range 0 10_000)
      (int_range 0 15))

let prop_random_mlps =
  QCheck.Test.make ~name:"random MLPs validate under all option toggles"
    ~count:10 spec_gen (fun (n_in, n_h, seed, toggles) ->
      agree (random_mlp n_in n_h seed) toggles)

let prop_random_rnns =
  QCheck.Test.make ~name:"random RNNs validate under all option toggles"
    ~count:10 spec_gen (fun (n_in, n_h, seed, toggles) ->
      agree (random_rnn n_in n_h seed) toggles)

let () =
  Alcotest.run "equiv"
    [
      ( "proved",
        [
          Alcotest.test_case "zoo @ sweetspot" `Quick
            test_zoo_proved_sweetspot;
          Alcotest.test_case "zoo @ dim 64" `Quick test_zoo_proved_dim64;
          Alcotest.test_case "zoo @ dim 64 unrepaired" `Quick
            test_zoo_proved_unrepaired;
          Alcotest.test_case "batch loop" `Quick test_batch_loop_proved;
          Alcotest.test_case "remap plan orthogonal" `Quick
            test_remap_plan_orthogonal;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "dropped glue copy" `Quick
            test_mutation_dropped_glue;
          Alcotest.test_case "swapped matrices" `Quick
            test_mutation_swapped_matrices;
          Alcotest.test_case "stale register" `Quick
            test_mutation_stale_register;
          Alcotest.test_case "coalesce mask" `Quick
            test_mutation_coalesce_mask;
          Alcotest.test_case "wrong LUT" `Quick test_mutation_wrong_lut;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_random_mlps;
          QCheck_alcotest.to_alcotest prop_random_rnns;
        ] );
    ]
