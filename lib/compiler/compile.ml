type options = {
  partition_strategy : Partition.strategy;
  coalesce_mvms : bool;
  wrap_batch_loop : bool;
  optimize_graph : bool;
  analysis_gate : bool;
  repair_ordering : bool;
  check_equiv : bool;
  static_analysis : bool;
  cluster : Partition.cluster option;
}

let default_options =
  {
    partition_strategy = Locality;
    coalesce_mvms = true;
    wrap_batch_loop = false;
    optimize_graph = true;
    analysis_gate = true;
    repair_ordering = true;
    check_equiv = true;
    static_analysis = true;
    cluster = None;
  }

type result = {
  program : Puma_isa.Program.t;
  analysis : Puma_analysis.Analyze.report;
  equiv : Puma_analysis.Equiv.result option;
  equiv_reference : Puma_analysis.Equiv.dataflow;
  layer_of : Puma_analysis.Resource.layer_of;
  sequencing_stats : Sequencing.stats;
  codegen_stats : Codegen.stats;
  optimize_stats : Optimize.stats option;
  edge_stats : Partition.edge_stats;
  num_mvm_nodes : int;
  num_mvm_instructions : int;
  critical_path_cycles : int;
  tiles_used : int;
  cores_used : int;
  mvmus_used : int;
  nodes_used : int;
  tiles_per_node : int;
}

let compile ?(options = default_options) (config : Puma_hwmodel.Config.t) g =
  (match Puma_graph.Graph.validate g with
  | Ok () -> ()
  | Error e -> invalid_arg ("Compile.compile: invalid graph: " ^ e));
  let g, optimize_stats =
    if options.optimize_graph then begin
      let g', s = Optimize.run g in
      (match Puma_graph.Graph.validate g' with
      | Ok () -> ()
      | Error e -> failwith ("Compile.compile: optimizer produced an invalid graph: " ^ e));
      (g', Some s)
    end
    else (g, None)
  in
  let lg = Tiling.lower ~dim:config.mvmu_dim g in
  let part =
    Partition.partition ?cluster:options.cluster config
      options.partition_strategy lg
  in
  let sched = Schedule.build ~coalesce:options.coalesce_mvms lg part in
  let program, codegen_stats, provenance =
    Codegen.generate config ~wrap_batch_loop:options.wrap_batch_loop g lg part
      sched
  in
  (* Bound the channels the happens-before analysis flags for in-flight
     pressure before the analysis gate sees the program (a no-op on
     clean code). *)
  let program, provenance, sequencing_stats =
    if options.repair_ordering then Sequencing.repair program ~provenance
    else (program, provenance, Sequencing.no_repair)
  in
  (* Cluster placements address the full node * tiles_per_node global tile
     space; pad the program with empty tiles so every node's block is
     complete and the runtime can split it at fixed strides (empty tiles
     halt immediately and cost nothing). *)
  let program =
    match options.cluster with
    | None -> program
    | Some _ ->
        let target =
          part.Partition.nodes_used * part.Partition.tiles_per_node
        in
        let have = Array.length program.Puma_isa.Program.tiles in
        if have >= target then program
        else
          let empty i =
            {
              Puma_isa.Program.tile_index = i;
              core_code =
                Array.init config.cores_per_tile (fun _ -> [||]);
              tile_code = [||];
              mvmu_images = [];
            }
          in
          {
            program with
            Puma_isa.Program.tiles =
              Array.init target (fun i ->
                  if i < have then program.Puma_isa.Program.tiles.(i)
                  else empty i);
          }
  in
  (* Layer labels per source-graph node: MVMs carry their matrix name,
     I/O nodes their binding name; glue ops (concat, slices, elementwise
     epilogues) inherit the label of their nearest labelled predecessor,
     so e.g. a conv layer's bias-add and activation count toward that
     layer. *)
  let layer_labels =
    let ns = Puma_graph.Graph.nodes g in
    let labels = Array.make (Array.length ns) None in
    Array.iter
      (fun (n : Puma_graph.Graph.node) ->
        labels.(n.id) <-
          (match n.op with
          | Puma_graph.Graph.Mvm { matrix } ->
              Some (Puma_graph.Graph.matrix g matrix).Puma_graph.Graph.mat_name
          | Input name | Output name -> Some name
          | Const_vec _ | Binop _ | Unop _ | Immop _ | Concat | Slice _ ->
              Array.fold_left
                (fun acc p -> if acc = None then labels.(p) else acc)
                None n.preds))
      ns;
    labels
  in
  let layer_of ~tile ~core ~pc =
    let src =
      match core with
      | Some c ->
          let cs = provenance.Codegen.core_src in
          if
            tile >= 0
            && tile < Array.length cs
            && c >= 0
            && c < Array.length cs.(tile)
            && pc >= 0
            && pc < Array.length cs.(tile).(c)
          then cs.(tile).(c).(pc)
          else -1
      | None ->
          let ts = provenance.Codegen.tile_src in
          if
            tile >= 0
            && tile < Array.length ts
            && pc >= 0
            && pc < Array.length ts.(tile)
          then ts.(tile).(pc)
          else -1
    in
    if src >= 0 && src < Array.length layer_labels then layer_labels.(src)
    else None
  in
  let num_mvm_nodes =
    Array.fold_left
      (fun acc (n : Lgraph.lnode) ->
        match n.op with
        | L_mvm _ -> acc + 1
        | L_input _ | L_const _ | L_binop _ | L_unop _ | L_immop _
        | L_gather _ | L_output _ ->
            acc)
      0 (Lgraph.nodes lg)
  in
  (* Translation validation: prove the emitted (and Sequencing-repaired)
     program computes the lowered dataflow. The reference is extracted
     regardless (it is cheap and callers revalidate saved program files
     against it); the check itself is gated by [check_equiv]. Its
     diagnostics merge into the analysis report so the analysis gate
     rejects miscompilations like any other error. *)
  let equiv_reference =
    let matrix_name m =
      (Puma_graph.Graph.matrix g m).Puma_graph.Graph.mat_name
    in
    Lgraph.to_reference ~matrix_name lg
  in
  (* One symbolic run behind the translation validation and the
     analysis' value ranges and cost bound. *)
  let run =
    if options.check_equiv || options.static_analysis then
      Some
        (Puma_analysis.Equiv.run ~ranges:options.static_analysis
           ?reference:(if options.check_equiv then Some equiv_reference else None)
           program)
    else None
  in
  let equiv = Option.bind run (fun r -> r.Puma_analysis.Equiv.equiv) in
  let analysis =
    if options.static_analysis then
      Puma_analysis.Analyze.program ~ranges:true ~resources:true ~order:true
        ?run ~layer_of program
    else Puma_analysis.Analyze.make_report []
  in
  let analysis =
    match equiv with
    | Some e ->
        Puma_analysis.Analyze.make_report
          (List.sort Puma_analysis.Diag.compare
             (analysis.Puma_analysis.Analyze.diags @ e.Puma_analysis.Equiv.diags))
    | None -> analysis
  in
  if options.analysis_gate && Puma_analysis.Analyze.has_errors analysis then
    failwith
      (Format.asprintf
         "Compile.compile: generated program fails static analysis:@.%a"
         Puma_analysis.Analyze.pp analysis);
  {
    program;
    analysis;
    equiv;
    equiv_reference;
    layer_of;
    sequencing_stats;
    codegen_stats;
    optimize_stats;
    edge_stats = Partition.edge_stats part lg;
    num_mvm_nodes;
    num_mvm_instructions = Schedule.num_mvm_instructions sched;
    critical_path_cycles = Schedule.critical_path_cycles config lg;
    tiles_used = part.Partition.tiles_used;
    cores_used = part.Partition.cores_used;
    mvmus_used = Lgraph.num_slots lg;
    nodes_used = part.Partition.nodes_used;
    tiles_per_node = part.Partition.tiles_per_node;
  }

let usage result = Puma_isa.Usage.of_program result.program
