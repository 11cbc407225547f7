module Operand = Puma_isa.Operand

type t = {
  layout : Operand.layout;
  gpr : int array;
  mvmus : Puma_xbar.Mvmu.t array;
}

let create layout mvmus =
  let dim = layout.Operand.mvmu_dim in
  let expected = Operand.size_of layout Xbar_in / dim in
  if Array.length mvmus <> expected then
    invalid_arg
      (Printf.sprintf "Regfile.create: expected %d MVMUs, got %d" expected
         (Array.length mvmus));
  { layout; gpr = Array.make (Operand.size_of layout Gpr) 0; mvmus }

let layout t = t.layout
let gpr t = t.gpr
let read t idx =
  let l = t.layout in
  match Operand.space_of l idx with
  | Xbar_in ->
      let off = idx - l.xbar_in_base in
      (Puma_xbar.Mvmu.xbar_in t.mvmus.(off / l.mvmu_dim)).(off mod l.mvmu_dim)
  | Xbar_out ->
      let off = idx - l.xbar_out_base in
      (Puma_xbar.Mvmu.xbar_out t.mvmus.(off / l.mvmu_dim)).(off mod l.mvmu_dim)
  | Gpr -> t.gpr.(idx - l.gpr_base)

let write t idx v =
  let l = t.layout in
  match Operand.space_of l idx with
  | Xbar_in ->
      let off = idx - l.xbar_in_base in
      (Puma_xbar.Mvmu.xbar_in t.mvmus.(off / l.mvmu_dim)).(off mod l.mvmu_dim) <- v
  | Xbar_out ->
      let off = idx - l.xbar_out_base in
      (Puma_xbar.Mvmu.xbar_out t.mvmus.(off / l.mvmu_dim)).(off mod l.mvmu_dim) <- v
  | Gpr -> t.gpr.(idx - l.gpr_base) <- v

let read_vec t base width = Array.init width (fun k -> read t (base + k))

let write_vec t base values =
  Array.iteri (fun k v -> write t (base + k) v) values
