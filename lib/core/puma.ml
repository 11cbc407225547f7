module Config = Puma_hwmodel.Config
module Builder = Puma_graph.Builder
module Graph = Puma_graph.Graph

module Nn = struct
  module Layer = Puma_nn.Layer
  module Network = Puma_nn.Network
  module Models = Puma_nn.Models
end

let compile ?(config = Config.sweetspot) ?options g =
  Puma_compiler.Compile.compile ?options config g

let reference g inputs = Puma_graph.Ref_exec.run g inputs

module Accuracy = Puma_accuracy

module Session = struct
  type t = {
    node : Puma_sim.Node.t;
    program : Puma_isa.Program.t;
    compile_result : Puma_compiler.Compile.result option;
  }

  let of_program ?noise_seed program =
    {
      node = Puma_sim.Node.create ?noise_seed program;
      program;
      compile_result = None;
    }

  let create ?(config = Config.sweetspot) ?options ?noise_seed g =
    let result = Puma_compiler.Compile.compile ?options config g in
    {
      node = Puma_sim.Node.create ?noise_seed result.program;
      program = result.program;
      compile_result = Some result;
    }

  let infer t inputs = Puma_sim.Node.run t.node ~inputs
  let infer_batch t batches = List.map (fun inputs -> infer t inputs) batches
  let metrics t = Puma_sim.Metrics.of_node t.node
  let program t = t.program
  let compile_result t = t.compile_result
end
