type lop =
  | L_input of { name : string; offset : int }
  | L_const of float array
  | L_mvm of { slot : int }
  | L_binop of Puma_graph.Graph.binop
  | L_unop of Puma_graph.Graph.unop
  | L_immop of Puma_graph.Graph.immop
  | L_gather of piece array
  | L_output of { name : string; offset : int }

and piece = { src : int; src_off : int; piece_len : int; dst_off : int }

type lnode = { id : int; op : lop; preds : int array; len : int; src : int }

type slot = {
  slot_id : int;
  matrix : int;
  row_block : int;
  col_block : int;
  image : string;
}

type sum = { terms : int array; adds : int array }
type sum_tree = Term of int | Plus of sum_tree * sum_tree

type t = {
  dim : int;
  mutable node_list : lnode list;  (* reverse *)
  mutable node_count : int;
  mutable sum_list : sum list;  (* reverse *)
  mutable slot_list : slot list;  (* reverse *)
  mutable slot_count : int;
  slot_index : (int * int * int, int) Hashtbl.t;
  mutable nodes_cache : lnode array option;
  mutable slots_cache : slot array option;
}

let create ~dim =
  {
    dim;
    node_list = [];
    node_count = 0;
    sum_list = [];
    slot_list = [];
    slot_count = 0;
    slot_index = Hashtbl.create 64;
    nodes_cache = None;
    slots_cache = None;
  }

let dim t = t.dim

let add_slot t ~matrix ~row_block ~col_block ~source =
  let key = (matrix, row_block, col_block) in
  match Hashtbl.find_opt t.slot_index key with
  | Some id -> id
  | None ->
      let image =
        Puma_util.Fixed.image_of_sub_block source ~row:(row_block * t.dim)
          ~col:(col_block * t.dim) ~dim:t.dim
      in
      let id = t.slot_count in
      t.slot_list <- { slot_id = id; matrix; row_block; col_block; image } :: t.slot_list;
      t.slot_count <- id + 1;
      t.slots_cache <- None;
      Hashtbl.add t.slot_index key id;
      id

let add_node ?(src = -1) t ~op ~preds ~len =
  Array.iter
    (fun p ->
      if p < 0 || p >= t.node_count then
        invalid_arg (Printf.sprintf "Lgraph.add_node: pred %d undefined" p))
    preds;
  if len <= 0 || len > t.dim then
    invalid_arg (Printf.sprintf "Lgraph.add_node: segment length %d not in 1..%d" len t.dim);
  let id = t.node_count in
  t.node_list <- { id; op; preds; len; src } :: t.node_list;
  t.node_count <- id + 1;
  t.nodes_cache <- None;
  id

let nodes t =
  match t.nodes_cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev t.node_list) in
      t.nodes_cache <- Some a;
      a

let add_sum ?src t ~terms ~len =
  let k = Array.length terms in
  if k = 0 then invalid_arg "Lgraph.add_sum: no terms";
  let acc = ref terms.(0) in
  let adds =
    Array.init (k - 1) (fun i ->
        acc :=
          add_node ?src t ~op:(L_binop Puma_graph.Graph.Add)
            ~preds:[| !acc; terms.(i + 1) |] ~len;
        !acc)
  in
  if k = 1 then terms.(0)
  else begin
    t.sum_list <- { terms = Array.copy terms; adds } :: t.sum_list;
    adds.(k - 2)
  end

(* Re-wire one sum's Add nodes into [tree], numbering the internal nodes
   in post-order: children before parents keeps every pred id below its
   consumer's, and the root lands on the last id, the one consumers of the
   sum already reference. *)
let rewire a (s : sum) tree =
  let next = ref 0 and leaves = ref [] in
  let rec go = function
    | Term id ->
        leaves := id :: !leaves;
        id
    | Plus (l, r) ->
        let l = go l in
        let r = go r in
        if !next >= Array.length s.adds then
          invalid_arg "Lgraph.reshape_sums: tree has too many terms";
        let id = s.adds.(!next) in
        incr next;
        a.(id) <- { (a.(id)) with preds = [| l; r |] };
        id
  in
  ignore (go tree);
  let sorted xs = List.sort compare xs in
  if sorted !leaves <> sorted (Array.to_list s.terms) then
    invalid_arg "Lgraph.reshape_sums: tree leaves are not the sum's terms"

let reshape_sums t f =
  let a = Array.copy (nodes t) in
  List.iter (fun s -> rewire a s (f s.terms)) t.sum_list;
  t.node_list <- List.rev (Array.to_list a);
  t.nodes_cache <- Some a

let slots t =
  match t.slots_cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev t.slot_list) in
      t.slots_cache <- Some a;
      a

let node t id = (nodes t).(id)
let num_nodes t = t.node_count
let slot t id = (slots t).(id)
let num_slots t = t.slot_count

let consumers t =
  let cons = Array.make t.node_count [] in
  Array.iter
    (fun (n : lnode) ->
      Array.iter (fun p -> cons.(p) <- n.id :: cons.(p)) n.preds)
    (nodes t);
  Array.map (fun l -> Array.of_list (List.rev l)) cons

let levels t =
  let ns = nodes t in
  let lev = Array.make t.node_count 0 in
  Array.iter
    (fun (n : lnode) ->
      let m = Array.fold_left (fun acc p -> max acc (lev.(p) + 1)) 0 n.preds in
      lev.(n.id) <- m)
    ns;
  lev

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
  (* Depth-first from each sink in reverse creation order: values feeding a
     sink are fully consumed before unrelated producers start. *)
  let cons = consumers t in
  for id = t.node_count - 1 downto 0 do
    if Array.length cons.(id) = 0 then visit id
  done;
  for id = 0 to t.node_count - 1 do
    visit id
  done;
  Array.of_list (List.rev !order)

(* ---- Reference-dataflow extraction for translation validation ----

   Deliberately independent of Codegen: the binop/unop/immop encodings and
   the fixed-point immediate quantization are re-derived here, so a wrong
   mapping in the code generator refutes instead of reproducing on both
   sides of the Equiv check. Crossbar images are the slots' own, quantized
   once by [add_slot]: Equiv still refutes one placed on the wrong MVMU. *)

module E = Puma_analysis.Equiv

let ref_binop : Puma_graph.Graph.binop -> Puma_isa.Instr.alu_op = function
  | Puma_graph.Graph.Add -> Puma_isa.Instr.Add
  | Sub -> Sub
  | Mul -> Mul
  | Div -> Div
  | Min -> Min
  | Max -> Max

let ref_unop : Puma_graph.Graph.unop -> Puma_isa.Instr.alu_op = function
  | Puma_graph.Graph.Relu -> Puma_isa.Instr.Relu
  | Sigmoid -> Sigmoid
  | Tanh -> Tanh
  | Exp -> Exp
  | Log -> Log

let quantize f = Puma_util.Fixed.to_raw (Puma_util.Fixed.of_float f)

let to_reference ~matrix_name t =
  let slots = slots t in
  Array.map
    (fun (n : lnode) ->
      let op =
        match n.op with
        | L_input { name; offset } -> E.R_input { name; offset }
        | L_const data -> E.R_const (Array.map quantize data)
        | L_mvm { slot } ->
            let s = slots.(slot) in
            E.R_mvm
              {
                image = s.image;
                label =
                  Printf.sprintf "%s[r%d,c%d]" (matrix_name s.matrix)
                    s.row_block s.col_block;
              }
        | L_binop op -> E.R_alu (ref_binop op)
        | L_unop op -> E.R_alu (ref_unop op)
        | L_immop (Puma_graph.Graph.Add_imm f) ->
            E.R_alui { op = Puma_isa.Instr.Add; imm = quantize f }
        | L_immop (Puma_graph.Graph.Mul_imm f) ->
            E.R_alui { op = Puma_isa.Instr.Mul; imm = quantize f }
        | L_gather pieces ->
            E.R_gather
              (Array.map
                 (fun { src; src_off; piece_len; dst_off } ->
                   { E.src; src_off; piece_len; dst_off })
                 pieces)
        | L_output { name; offset } -> E.R_output { name; offset }
      in
      { E.op; preds = n.preds; len = n.len })
    (nodes t)
