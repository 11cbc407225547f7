type mvmu_image = {
  core_index : int;
  mvmu_index : int;
  image : string;
}

type io_binding = {
  name : string;
  tile : int;
  mem_addr : int;
  length : int;
  offset : int;
}

type tile_program = {
  tile_index : int;
  core_code : Instr.t array array;
  tile_code : Instr.t array;
  mvmu_images : mvmu_image list;
}

type t = {
  config : Puma_hwmodel.Config.t;
  tiles : tile_program array;
  inputs : io_binding list;
  outputs : io_binding list;
  constants : (io_binding * int array) list;
}

let num_tiles t = Array.length t.tiles

let num_cores t =
  Array.fold_left
    (fun acc tile ->
      acc
      + Array.fold_left
          (fun a code -> if Array.length code > 0 then a + 1 else a)
          0 tile.core_code)
    0 t.tiles

let tile_busy tp =
  Array.exists (fun code -> Array.length code > 0) tp.core_code
  || Array.length tp.tile_code > 0

let tiles_used t =
  Array.fold_left
    (fun acc tp -> if tile_busy tp then acc + 1 else acc)
    0 t.tiles

let num_instrs t =
  Array.fold_left
    (fun acc tile ->
      acc
      + Array.length tile.tile_code
      + Array.fold_left (fun a code -> a + Array.length code) 0 tile.core_code)
    0 t.tiles

let all_core_instrs t =
  Array.fold_left
    (fun acc tile ->
      Array.fold_left
        (fun a code -> Array.fold_left (fun a i -> i :: a) a code)
        acc tile.core_code)
    [] t.tiles
  |> List.rev

let all_tile_instrs t =
  Array.fold_left
    (fun acc tile -> Array.fold_left (fun a i -> i :: a) acc tile.tile_code)
    [] t.tiles
  |> List.rev

let iter_instrs t f =
  Array.iter
    (fun tile ->
      Array.iter (fun code -> Array.iter f code) tile.core_code;
      Array.iter f tile.tile_code)
    t.tiles

(* Keyed both by position and by [tile_index] (callers address tiles
   either way), so it covers an access under either key. *)
let footprint (p : t) =
  let capacity = p.config.smem_bytes / 2 in
  let n = Array.length p.tiles in
  let ends = Array.make n 0 in
  let reach k e = if k >= 0 && k < n && e > ends.(k) then ends.(k) <- e in
  Array.iteri
    (fun pos (tp : tile_program) ->
      let e = ref 0 in
      let touch a w = if a + w > !e then e := a + w in
      Array.iter
        (Array.iter (function
          | Instr.Load { addr = Instr.Imm_addr a; vec_width; _ }
          | Instr.Store { addr = Instr.Imm_addr a; vec_width; _ } ->
              touch a vec_width
          | Instr.Load { addr = Instr.Sreg_addr _; _ }
          | Instr.Store { addr = Instr.Sreg_addr _; _ } ->
              touch 0 capacity
          | _ -> ()))
        tp.core_code;
      Array.iter
        (function
          | Instr.Send { mem_addr; vec_width; _ }
          | Instr.Receive { mem_addr; vec_width; _ } ->
              touch mem_addr vec_width
          | _ -> ())
        tp.tile_code;
      reach pos !e;
      reach tp.tile_index !e)
    p.tiles;
  let bind (b : io_binding) = reach b.tile (b.mem_addr + b.length) in
  List.iter bind p.inputs;
  List.iter bind p.outputs;
  List.iter (fun (b, _) -> bind b) p.constants;
  fun k -> if k >= 0 && k < n then min ends.(k) capacity else capacity
