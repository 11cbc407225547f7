module Fixed = Puma_util.Fixed

type t = {
  config : Puma_hwmodel.Config.t;
  mutable stack : Bitslice.t;
  xbar_in : int array;
  xbar_out : int array;
  (* Reusable buffers for [execute_fast]: the stride-permuted input view
     and the raw accumulator, so steady-state MVMs allocate nothing. *)
  in_scratch : int array;
  acc_scratch : int array;
}

let create (c : Puma_hwmodel.Config.t) =
  {
    config = c;
    stack = Bitslice.zero c;
    xbar_in = Array.make c.mvmu_dim 0;
    xbar_out = Array.make c.mvmu_dim 0;
    in_scratch = Array.make c.mvmu_dim 0;
    acc_scratch = Array.make c.mvmu_dim 0;
  }

let program t ?rng ?fault image =
  t.stack <- Bitslice.of_image t.config ?rng ?fault image
let dim t = t.config.mvmu_dim
let xbar_in t = t.xbar_in
let xbar_out t = t.xbar_out

let execute t ~stride =
  let d = dim t in
  let input =
    if stride = 0 then t.xbar_in
    else Array.init d (fun j -> t.xbar_in.((j + stride) mod d))
  in
  let acc = Bitslice.mvm_raw t.stack input in
  Fixed.Vec.of_acc acc 0 t.xbar_out 0 d

(* Allocation-free [execute] used by the pre-decoded fast path. Exact
   stacks route through the exact kernel into the reused accumulator;
   noisy stacks (write noise or faults present) fall back to [execute],
   whose float chain both paths share, keeping results bit-identical. *)
let execute_fast t ~stride =
  if Bitslice.is_noisy t.stack then execute t ~stride
  else begin
    let d = dim t in
    let input =
      if stride = 0 then t.xbar_in
      else begin
        let s = t.in_scratch in
        for j = 0 to d - 1 do
          s.(j) <- t.xbar_in.((j + stride) mod d)
        done;
        s
      end
    in
    let acc = t.acc_scratch in
    Bitslice.mvm_raw_exact_into t.stack input acc;
    Fixed.Vec.of_acc acc 0 t.xbar_out 0 d
  end

let mvm t x =
  assert (Array.length x = dim t);
  Array.iteri (fun j v -> t.xbar_in.(j) <- Fixed.to_raw v) x;
  execute t ~stride:0;
  Array.map Fixed.of_raw t.xbar_out
