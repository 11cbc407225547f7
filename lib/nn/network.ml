module B = Puma_graph.Builder
module Tensor = Puma_util.Tensor
module Rng = Puma_util.Rng

type kind = Mlp | Deep_lstm | Wide_lstm | Cnn | Rnn_net | Boltzmann

type t = {
  name : string;
  kind : kind;
  input : Layer.shape;
  seq_len : int;
  layers : Layer.t list;
}

let make ~name ~kind ~input ?(seq_len = 1) layers =
  if seq_len < 1 then invalid_arg "Network.make: seq_len must be >= 1";
  { name; kind; input; seq_len; layers }

let with_seq_len t seq_len =
  if seq_len < 1 then invalid_arg "Network.with_seq_len: seq_len must be >= 1";
  { t with seq_len }

let shapes t =
  let rec go shape = function
    | [] -> [ shape ]
    | l :: rest -> shape :: go (Layer.out_shape shape l) rest
  in
  go t.input t.layers

let fold_layers t f init =
  let rec go acc shape = function
    | [] -> acc
    | l :: rest -> go (f acc shape l) (Layer.out_shape shape l) rest
  in
  go init t.input t.layers

let total_params t = fold_layers t (fun acc s l -> acc + Layer.params s l) 0

(* Recurrent layers run once per time-step; feed-forward layers in a
   sequence model (the output projection / softmax) run once per sequence,
   on the final state. *)
let layer_steps t (l : Layer.t) =
  match l with Lstm _ | Rnn _ -> t.seq_len | _ -> 1

let total_macs t =
  fold_layers t (fun acc s l -> acc + (layer_steps t l * Layer.macs s l)) 0

let weight_bytes t = 2 * total_params t

let num_layers t = List.length t.layers

let kind_name = function
  | Mlp -> "MLP"
  | Deep_lstm -> "Deep LSTM"
  | Wide_lstm -> "Wide LSTM"
  | Cnn -> "CNN"
  | Rnn_net -> "RNN"
  | Boltzmann -> "BM/RBM"

let pp_summary fmt t =
  Format.fprintf fmt "%s (%s): %d layers, %d params, %d MACs/inference"
    t.name (kind_name t.kind) (num_layers t) (total_params t) (total_macs t)

(* ---- Graph construction ---- *)

let rand_mat rng rows cols =
  let amplitude = 1.0 /. sqrt (Float.of_int cols) in
  Tensor.mat_rand rng rows cols amplitude

let rand_bias rng n =
  Array.init n (fun _ -> Rng.uniform rng (-0.1) 0.1)

let apply_activation m (act : Layer.activation) v =
  match act with
  | No_act -> v
  | Relu -> B.relu m v
  | Sigmoid -> B.sigmoid m v
  | Tanh -> B.tanh m v
  | Log_softmax ->
      (* x - log(sum(exp x)), with the reduction done as an MVM against an
         all-ones row (summation happens on a crossbar). *)
      let n = B.len v in
      let e = B.exp m v in
      let ones = B.const_matrix m ~name:"ls_ones" (Tensor.mat_init 1 n (fun _ _ -> 1.0)) in
      let s = B.mvm m ones e in
      let logs = B.log m s in
      let broadcast = B.concat m (List.init n (fun _ -> logs)) in
      B.sub m v broadcast

(* Image values are carried as flattened HWC vectors. A window whose
   coordinates fall outside the image (padding) takes pieces from a shared
   zero constant instead. [x0]/[y0] are window origins in padded
   coordinates. *)
let window_hwc m v ~h ~w ~c ~pad ~x0 ~y0 ~kw ~kh ~zeros =
  let rows =
    List.init kh (fun ky ->
        let iy = y0 + ky - pad in
        if iy < 0 || iy >= h then zeros
        else begin
          let x_lo = x0 - pad in
          let x_hi = x_lo + kw in
          let in_lo = max 0 x_lo and in_hi = min w x_hi in
          let left = in_lo - x_lo and right = x_hi - in_hi in
          let middle =
            B.slice m v ~offset:(((iy * w) + in_lo) * c) ~len:((in_hi - in_lo) * c)
          in
          let parts =
            (if left > 0 then [ B.slice m zeros ~offset:0 ~len:(left * c) ] else [])
            @ [ middle ]
            @
            if right > 0 then [ B.slice m zeros ~offset:0 ~len:(right * c) ]
            else []
          in
          B.concat m parts
        end)
  in
  B.concat m rows

let build_graph ?(seed = 2024) t =
  let rng = Rng.create seed in
  let m = B.create t.name in
  let in_len = Layer.shape_len t.input in
  let x = B.input m ~name:"x" ~len:(t.seq_len * in_len) in
  let steps =
    List.init t.seq_len (fun s ->
        if t.seq_len = 1 then x
        else B.slice m x ~offset:(s * in_len) ~len:in_len)
  in
  let layer_idx = ref 0 in
  let apply_layer (vals, shape) layer =
    incr layer_idx;
    let li = !layer_idx in
    let name base = Printf.sprintf "%s%d" base li in
    let out_shape = Layer.out_shape shape layer in
    (* Feed-forward layers of a sequence model consume the final state. *)
    let vals =
      match (layer : Layer.t) with
      | Lstm _ | Rnn _ -> vals
      | Dense _ | Conv _ | Maxpool _ | Flatten ->
          if List.length vals > 1 then [ List.nth vals (List.length vals - 1) ]
          else vals
    in
    let vals' =
      match (layer : Layer.t) with
      | Flatten -> vals
      | Dense { out; act } ->
          let inp = Layer.shape_len shape in
          let w = B.const_matrix m ~name:(name "W") (rand_mat rng out inp) in
          let b = B.const_vec m (rand_bias rng out) in
          List.map
            (fun v -> apply_activation m act (B.add m (B.mvm m w v) b))
            vals
      | Rnn { hidden } ->
          let inp = Layer.shape_len shape in
          let w =
            B.const_matrix m ~name:(name "Wrnn")
              (rand_mat rng hidden (inp + hidden))
          in
          let b = B.const_vec m (rand_bias rng hidden) in
          let h0 = B.const_vec m (Array.make hidden 0.0) in
          let _, outs =
            List.fold_left
              (fun (h, outs) v ->
                let z = B.add m (B.mvm m w (B.concat m [ v; h ])) b in
                let h' = B.tanh m z in
                (h', h' :: outs))
              (h0, []) vals
          in
          List.rev outs
      | Lstm { cell; proj } ->
          let inp = Layer.shape_len shape in
          let hidden = Option.value proj ~default:cell in
          let w =
            B.const_matrix m ~name:(name "Wlstm")
              (rand_mat rng (4 * cell) (inp + hidden))
          in
          let b = B.const_vec m (rand_bias rng (4 * cell)) in
          let wp =
            Option.map
              (fun p -> B.const_matrix m ~name:(name "Wproj") (rand_mat rng p cell))
              proj
          in
          let h0 = B.const_vec m (Array.make hidden 0.0) in
          let c0 = B.const_vec m (Array.make cell 0.0) in
          let _, _, outs =
            List.fold_left
              (fun (h, c, outs) v ->
                let z = B.add m (B.mvm m w (B.concat m [ v; h ])) b in
                let i = B.sigmoid m (B.slice m z ~offset:0 ~len:cell) in
                let f = B.sigmoid m (B.slice m z ~offset:cell ~len:cell) in
                let g = B.tanh m (B.slice m z ~offset:(2 * cell) ~len:cell) in
                let o = B.sigmoid m (B.slice m z ~offset:(3 * cell) ~len:cell) in
                let c' = B.add m (B.mul m f c) (B.mul m i g) in
                let hfull = B.mul m o (B.tanh m c') in
                let h' =
                  match wp with Some p -> B.mvm m p hfull | None -> hfull
                in
                (h', c', h' :: outs))
              (h0, c0, []) vals
          in
          List.rev outs
      | Conv { out_ch; kh; kw; stride; pad; act } ->
          let h, w, c =
            match shape with
            | Img { h; w; c } -> (h, w, c)
            | Vec _ -> invalid_arg "Network: conv on vector"
          in
          let oh, ow =
            match out_shape with
            | Img { h = oh; w = ow; _ } -> (oh, ow)
            | Vec _ -> assert false
          in
          let kmat =
            B.const_matrix m ~name:(name "K") (rand_mat rng out_ch (kh * kw * c))
          in
          let b = B.const_vec m (rand_bias rng out_ch) in
          let zeros =
            if pad > 0 then B.const_vec m (Array.make (kw * c) 0.0)
            else B.const_vec m [| 0.0 |]
          in
          List.map
            (fun v ->
              let windows =
                List.concat_map
                  (fun oy ->
                    List.map
                      (fun ox ->
                        let win =
                          window_hwc m v ~h ~w ~c ~pad ~x0:(ox * stride)
                            ~y0:(oy * stride) ~kw ~kh ~zeros
                        in
                        apply_activation m act (B.add m (B.mvm m kmat win) b))
                      (List.init ow (fun i -> i)))
                  (List.init oh (fun i -> i))
              in
              B.concat m windows)
            vals
      | Maxpool { size; stride } ->
          let h, w, c =
            match shape with
            | Img { h; w; c } -> (h, w, c)
            | Vec _ -> invalid_arg "Network: pool on vector"
          in
          ignore h;
          let oh, ow =
            match out_shape with
            | Img { h = oh; w = ow; _ } -> (oh, ow)
            | Vec _ -> assert false
          in
          List.map
            (fun v ->
              let rows =
                List.init oh (fun oy ->
                    let candidates =
                      List.concat_map
                        (fun ky ->
                          List.map
                            (fun kx ->
                              (* Row of window element (ky, kx) across all
                                 output columns of this output row. *)
                              B.concat m
                                (List.init ow (fun ox ->
                                     let iy = (oy * stride) + ky in
                                     let ix = (ox * stride) + kx in
                                     B.slice m v
                                       ~offset:(((iy * w) + ix) * c)
                                       ~len:c)))
                            (List.init size (fun i -> i)))
                        (List.init size (fun i -> i))
                    in
                    match candidates with
                    | first :: rest ->
                        List.fold_left (fun acc cand -> B.vmax m acc cand) first rest
                    | [] -> assert false)
              in
              B.concat m rows)
            vals
    in
    (vals', out_shape)
  in
  let vals, _ = List.fold_left apply_layer (steps, t.input) t.layers in
  let last = List.nth vals (List.length vals - 1) in
  B.output m ~name:"y" last;
  B.finish m
