module Tensor = Puma_util.Tensor

type binop = Add | Sub | Mul | Div | Min | Max
type unop = Relu | Sigmoid | Tanh | Exp | Log
type immop = Add_imm of float | Mul_imm of float

type op =
  | Input of string
  | Const_vec of float array
  | Mvm of { matrix : int }
  | Binop of binop
  | Unop of unop
  | Immop of immop
  | Concat
  | Slice of { offset : int }
  | Output of string

type node = { id : int; op : op; preds : int array; len : int }
type matrix = { mat_id : int; mat_name : string; data : Tensor.mat }

type t = {
  name : string;
  mutable node_list : node list;  (* reverse creation order *)
  mutable node_count : int;
  mutable mat_list : matrix list;  (* reverse *)
  mutable mat_count : int;
  mutable nodes_cache : node array option;
  mutable mats_cache : matrix array option;
}

let create name =
  {
    name;
    node_list = [];
    node_count = 0;
    mat_list = [];
    mat_count = 0;
    nodes_cache = None;
    mats_cache = None;
  }

let name t = t.name

let nodes t =
  match t.nodes_cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev t.node_list) in
      t.nodes_cache <- Some a;
      a

let matrices t =
  match t.mats_cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev t.mat_list) in
      t.mats_cache <- Some a;
      a

let node t id = (nodes t).(id)
let num_nodes t = t.node_count
let matrix t id = (matrices t).(id)

let add_matrix t ~name data =
  let id = t.mat_count in
  t.mat_list <- { mat_id = id; mat_name = name; data } :: t.mat_list;
  t.mat_count <- id + 1;
  t.mats_cache <- None;
  id

let add_node t ~op ~preds ~len =
  Array.iter
    (fun p ->
      if p < 0 || p >= t.node_count then
        invalid_arg (Printf.sprintf "Graph.add_node: predecessor %d not defined" p))
    preds;
  let id = t.node_count in
  t.node_list <- { id; op; preds; len } :: t.node_list;
  t.node_count <- id + 1;
  t.nodes_cache <- None;
  id

let inputs t =
  Array.to_list (nodes t)
  |> List.filter (fun n -> match n.op with Input _ -> true | _ -> false)

let outputs t =
  Array.to_list (nodes t)
  |> List.filter (fun n -> match n.op with Output _ -> true | _ -> false)

let consumers t =
  let cons = Array.make t.node_count [] in
  Array.iter
    (fun n -> Array.iter (fun p -> cons.(p) <- n.id :: cons.(p)) n.preds)
    (nodes t);
  Array.map (fun l -> Array.of_list (List.rev l)) cons

let reverse_postorder t =
  let ns = nodes t in
  let visited = Array.make t.node_count false in
  let order = ref [] in
  let rec visit id =
    if not visited.(id) then begin
      visited.(id) <- true;
      Array.iter visit ns.(id).preds;
      order := id :: !order
    end
  in
  (* Visit from outputs (and any sinks) so that the postorder consumes
     values close to their producers. *)
  Array.iter (fun n -> visit n.id) ns;
  (* !order is a reverse postorder of the dependence DAG: each node appears
     after its predecessors. *)
  Array.of_list (List.rev !order)

let validate t =
  let ns = nodes t in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  Array.iter
    (fun n ->
      let pred_len k = ns.(n.preds.(k)).len in
      match n.op with
      | Input _ -> if Array.length n.preds <> 0 then fail "input %d has preds" n.id
      | Const_vec v ->
          if Array.length n.preds <> 0 then fail "const %d has preds" n.id
          else if Array.length v <> n.len then
            fail "const %d: data length %d <> %d" n.id (Array.length v) n.len
      | Mvm { matrix } ->
          if Array.length n.preds <> 1 then fail "mvm %d needs 1 pred" n.id
          else begin
            let m = (matrices t).(matrix) in
            if m.data.Tensor.cols <> pred_len 0 then
              fail "mvm %d: matrix cols %d <> input len %d" n.id
                m.data.Tensor.cols (pred_len 0);
            if m.data.Tensor.rows <> n.len then
              fail "mvm %d: matrix rows %d <> output len %d" n.id
                m.data.Tensor.rows n.len
          end
      | Binop _ ->
          if Array.length n.preds <> 2 then fail "binop %d needs 2 preds" n.id
          else if pred_len 0 <> n.len || pred_len 1 <> n.len then
            fail "binop %d: length mismatch" n.id
      | Unop _ | Immop _ ->
          if Array.length n.preds <> 1 then fail "unop %d needs 1 pred" n.id
          else if pred_len 0 <> n.len then fail "unop %d: length mismatch" n.id
      | Concat ->
          let total = Array.fold_left (fun a p -> a + ns.(p).len) 0 n.preds in
          if total <> n.len then
            fail "concat %d: parts sum to %d <> %d" n.id total n.len
      | Slice { offset } ->
          if Array.length n.preds <> 1 then fail "slice %d needs 1 pred" n.id
          else if offset < 0 || offset + n.len > pred_len 0 then
            fail "slice %d: [%d, %d) out of source %d" n.id offset
              (offset + n.len) (pred_len 0)
      | Output _ ->
          if Array.length n.preds <> 1 then fail "output %d needs 1 pred" n.id
          else if pred_len 0 <> n.len then fail "output %d: length mismatch" n.id)
    ns;
  match !err with None -> Ok () | Some e -> Error e

let op_label t (n : node) =
  match n.op with
  | Input name -> Printf.sprintf "input %s" name
  | Const_vec _ -> "const"
  | Mvm { matrix } ->
      let m = (matrices t).(matrix) in
      Printf.sprintf "mvm %s (%dx%d)" m.mat_name m.data.Tensor.rows
        m.data.Tensor.cols
  | Binop Add -> "+"
  | Binop Sub -> "-"
  | Binop Mul -> "*"
  | Binop Div -> "/"
  | Binop Min -> "min"
  | Binop Max -> "max"
  | Unop Relu -> "relu"
  | Unop Sigmoid -> "sigmoid"
  | Unop Tanh -> "tanh"
  | Unop Exp -> "exp"
  | Unop Log -> "log"
  | Immop (Add_imm c) -> Printf.sprintf "+ %.3g" c
  | Immop (Mul_imm c) -> Printf.sprintf "* %.3g" c
  | Concat -> "concat"
  | Slice { offset } -> Printf.sprintf "slice @%d" offset
  | Output name -> Printf.sprintf "output %s" name

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  rankdir=TB;\n" t.name);
  Array.iter
    (fun (n : node) ->
      let shape =
        match n.op with
        | Input _ | Output _ -> "box"
        | Mvm _ -> "box3d"
        | _ -> "ellipse"
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=%S shape=%s];\n" n.id (op_label t n) shape);
      Array.iter
        (fun p ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [label=\"%d\"];\n" p n.id
               (nodes t).(p).len))
        n.preds)
    (nodes t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

type stats = {
  num_mvms : int;
  num_vector_ops : int;
  num_nonlinear : int;
  num_transcendental : int;
  mvm_macs : int;
  vector_elems : int;
  weight_params : int;
  max_vector_len : int;
}

let stats t =
  let ns = nodes t in
  let s =
    ref
      {
        num_mvms = 0;
        num_vector_ops = 0;
        num_nonlinear = 0;
        num_transcendental = 0;
        mvm_macs = 0;
        vector_elems = 0;
        weight_params = 0;
        max_vector_len = 0;
      }
  in
  Array.iter
    (fun n ->
      let cur = !s in
      let cur = { cur with max_vector_len = max cur.max_vector_len n.len } in
      s :=
        (match n.op with
        | Mvm { matrix } ->
            let m = (matrices t).(matrix) in
            {
              cur with
              num_mvms = cur.num_mvms + 1;
              mvm_macs = cur.mvm_macs + (m.data.Tensor.rows * m.data.Tensor.cols);
            }
        | Binop _ | Immop _ ->
            {
              cur with
              num_vector_ops = cur.num_vector_ops + 1;
              vector_elems = cur.vector_elems + n.len;
            }
        | Unop u ->
            let trans = match u with Sigmoid | Tanh | Exp | Log -> 1 | Relu -> 0 in
            {
              cur with
              num_nonlinear = cur.num_nonlinear + 1;
              num_transcendental = cur.num_transcendental + trans;
              vector_elems = cur.vector_elems + n.len;
            }
        | Input _ | Const_vec _ | Concat | Slice _ | Output _ -> cur))
    ns;
  let params =
    Array.fold_left
      (fun acc m -> acc + (m.data.Tensor.rows * m.data.Tensor.cols))
      0 (matrices t)
  in
  { !s with weight_params = params }
