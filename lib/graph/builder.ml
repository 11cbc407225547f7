type t = Graph.t
type value = { id : int; vlen : int }
type matrix = { mid : int; rows : int; cols : int }

let create = Graph.create

let finish t =
  (match Graph.validate t with
  | Ok () -> ()
  | Error e -> invalid_arg ("Builder.finish: invalid model: " ^ e));
  t

let len v = v.vlen

let input t ~name ~len =
  { id = Graph.add_node t ~op:(Input name) ~preds:[||] ~len; vlen = len }

let const_vec t data =
  let len = Array.length data in
  { id = Graph.add_node t ~op:(Const_vec data) ~preds:[||] ~len; vlen = len }

let const_matrix t ~name m =
  {
    mid = Graph.add_matrix t ~name m;
    rows = m.Puma_util.Tensor.rows;
    cols = m.Puma_util.Tensor.cols;
  }

let output t ~name v =
  ignore
    (Graph.add_node t ~op:(Output name) ~preds:[| v.id |] ~len:v.vlen)

let mvm t m v =
  if m.cols <> v.vlen then
    invalid_arg
      (Printf.sprintf "Builder.mvm: matrix cols %d <> vector len %d" m.cols v.vlen);
  {
    id = Graph.add_node t ~op:(Mvm { matrix = m.mid }) ~preds:[| v.id |] ~len:m.rows;
    vlen = m.rows;
  }

let binop t op a b =
  if a.vlen <> b.vlen then
    invalid_arg "Builder: binary op on vectors of different lengths";
  {
    id = Graph.add_node t ~op:(Binop op) ~preds:[| a.id; b.id |] ~len:a.vlen;
    vlen = a.vlen;
  }

let add t = binop t Add
let sub t = binop t Sub
let mul t = binop t Mul
let div t = binop t Div
let vmin t = binop t Min
let vmax t = binop t Max

let unop t op a =
  { id = Graph.add_node t ~op:(Unop op) ~preds:[| a.id |] ~len:a.vlen; vlen = a.vlen }

let relu t = unop t Relu
let sigmoid t = unop t Sigmoid
let tanh t = unop t Tanh
let exp t = unop t Exp
let log t = unop t Log

let immop t op a =
  { id = Graph.add_node t ~op:(Immop op) ~preds:[| a.id |] ~len:a.vlen; vlen = a.vlen }

let add_imm t a f = immop t (Add_imm f) a
let mul_imm t a f = immop t (Mul_imm f) a

let concat t vs =
  match vs with
  | [] -> invalid_arg "Builder.concat: empty list"
  | [ v ] -> v
  | _ ->
      let total = List.fold_left (fun acc v -> acc + v.vlen) 0 vs in
      let preds = Array.of_list (List.map (fun v -> v.id) vs) in
      { id = Graph.add_node t ~op:Concat ~preds ~len:total; vlen = total }

let slice t v ~offset ~len =
  if offset < 0 || offset + len > v.vlen then
    invalid_arg "Builder.slice: window out of range";
  {
    id = Graph.add_node t ~op:(Slice { offset }) ~preds:[| v.id |] ~len;
    vlen = len;
  }
