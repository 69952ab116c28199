let escape s =
  String.concat "" (List.map (function '"' -> "\\\"" | c -> String.make 1 c)
                      (List.init (String.length s) (String.get s)))

let node_id = function
  | Flow.User -> "user"
  | Flow.Actor a -> "actor_" ^ a
  | Flow.Store s -> "store_" ^ s

let fields_label fields =
  String.concat ", " (List.map Field.name fields)

let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

let to_string (d : Diagram.t) =
  let buf = Buffer.create 1024 in
  buf_addf buf "digraph dataflow {\n  rankdir=LR;\n";
  buf_addf buf "  user [label=\"User\", shape=oval, style=bold];\n";
  List.iter
    (fun (a : Actor.t) ->
      buf_addf buf "  actor_%s [label=\"%s\", shape=oval];\n" a.id (escape a.id))
    d.actors;
  List.iter
    (fun (s : Datastore.t) ->
      let schemas =
        String.concat "\\n"
          (List.map
             (fun (sc : Schema.t) ->
               Printf.sprintf "%s: %s" sc.id (fields_label sc.fields))
             s.schemas)
      in
      buf_addf buf "  store_%s [label=\"%s\\n%s\", shape=box%s];\n" s.id
        (escape s.id) (escape schemas)
        (match s.kind with
        | Datastore.Anonymised -> ", style=dashed"
        | Datastore.Plain -> ""))
    d.datastores;
  List.iteri
    (fun i (s : Service.t) ->
      buf_addf buf "  subgraph cluster_%d { label=\"%s\"; style=invis;\n" i
        (escape s.id);
      buf_addf buf "  }\n";
      List.iter
        (fun (f : Flow.t) ->
          buf_addf buf "  %s -> %s [label=\"%d: %s\\n(%s)\"];\n"
            (node_id f.src) (node_id f.dst) f.order
            (escape (fields_label f.fields))
            (escape f.purpose))
        s.flows)
    d.services;
  buf_addf buf "}\n";
  Buffer.contents buf
