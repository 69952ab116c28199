(* Bench-side spans around the calls into each layer of a traced op.

   Self times come from these spans, not from [Mdp_obs] spans: the
   library's spans nest ([phase/whatif] encloses the [generate/run] of
   every rerun it triggers), so summing them double-counts. Here every
   span knows its parent, a layer's self time is its duration minus its
   children's, and whatever the op spends outside any layer span is the
   root's self time, [unattributed]. *)

type span = {
  op : int;
  id : int;
  name : string;
  parent : int;  (** -1 for an op's root span *)
  start_ns : int;
  end_ns : int;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;
  mutable op : int;
}

let create () = { spans = []; next_id = 0; stack = []; op = -1 }

(* [named result] names the span once its call has returned — a what-if
   candidate's layer is its classification, known only afterwards. *)
let span_named t named f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start_ns = Util.now_ns () in
  let close name =
    t.stack <- List.tl t.stack;
    t.spans <-
      { op = t.op; id; name; parent; start_ns; end_ns = Util.now_ns () }
      :: t.spans
  in
  match f () with
  | v ->
    close (named v);
    v
  | exception e ->
    close "error";
    raise e

let span t name f = span_named t (fun _ -> name) f

(* One traced op: a root span named "op" around [f]. *)
let op t f =
  t.op <- t.op + 1;
  t.stack <- [];
  span t "op" f

type breakdown = {
  wall_ns : int;
  unattributed_ns : int;
  self_ns : (string * int) list;  (** summed per layer name *)
  durations : (string * int list) list;  (** per layer name, per span *)
}

let dur s = s.end_ns - s.start_ns

let breakdown t op =
  let spans = List.filter (fun (s : span) -> s.op = op) t.spans in
  let child_ns = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let cur = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0 in
      Hashtbl.replace child_ns s.parent (cur + dur s))
    spans;
  let self s = dur s - Option.value (Hashtbl.find_opt child_ns s.id) ~default:0 in
  let root = List.find (fun s -> s.parent = -1) spans in
  let add tbl k v f =
    Hashtbl.replace tbl k (f v (Hashtbl.find_opt tbl k))
  in
  let selfs = Hashtbl.create 16 and durs = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent <> -1 then begin
        add selfs s.name (self s) (fun v o -> v + Option.value o ~default:0);
        add durs s.name (dur s) (fun v o -> v :: Option.value o ~default:[])
      end)
    spans;
  let to_list tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  {
    wall_ns = dur root;
    unattributed_ns = self root;
    self_ns = to_list selfs;
    durations = to_list durs;
  }

(* Layer self times plus the root's self time must account for the whole
   op wall: a span left open or attached to the wrong parent breaks the
   sum. *)
let accounts_for_wall b =
  List.fold_left (fun acc (_, ns) -> acc + ns) b.unattributed_ns b.self_ns
  = b.wall_ns

let ops t = List.sort_uniq compare (List.map (fun (s : span) -> s.op) t.spans)

let write_jsonl t ~workload path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s : span) ->
          output_string oc
            (Util.json_string
               (Util.Json.Obj
                  [
                    ("workload", Util.Json.Str workload);
                    ("op", Util.Json.int s.op);
                    ("id", Util.Json.int s.id);
                    ("name", Util.Json.Str s.name);
                    ("parent", Util.Json.int s.parent);
                    ("start_ns", Util.Json.int s.start_ns);
                    ("end_ns", Util.Json.int s.end_ns);
                  ]));
          output_char oc '\n')
        (List.rev t.spans))
