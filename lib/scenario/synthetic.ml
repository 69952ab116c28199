open Mdp_dataflow
module Prng = Mdp_prelude.Prng
module Acl = Mdp_policy.Acl
module Permission = Mdp_policy.Permission
module A = Mdp_anon

type spec = {
  seed : int;
  nactors : int;
  nfields : int;
  nstores : int;
  nservices : int;
  flows_per_service : int;
}

(* "synthetic:NA-NF-FPS[@SEED]" (also accepted with a "-" separator)
   names a generated model rather than a file; shared by the CLI and
   the serve daemon so both resolve exactly the same model from the
   same string. Defaults match the [scaling] table of bench/main.ml
   and the pinned @42 specs of bench/suite: seed 42, two stores, two
   services. *)
let spec_of_string path =
  let prefixed p =
    if
      String.length path > String.length p
      && String.sub path 0 (String.length p) = p
    then
      Some
        (String.sub path (String.length p) (String.length path - String.length p))
    else None
  in
  match
    match prefixed "synthetic:" with
    | Some b -> Some b
    | None -> prefixed "synthetic-"
  with
  | None -> None
  | Some body -> (
    let spec () =
      let body, seed =
        match String.index_opt body '@' with
        | None -> (body, 42)
        | Some i ->
          ( String.sub body 0 i,
            int_of_string (String.sub body (i + 1) (String.length body - i - 1))
          )
      in
      match String.split_on_char '-' body |> List.map int_of_string with
      | [ na; nf; fps ] ->
        {
          seed;
          nactors = na;
          nfields = nf;
          nstores = 2;
          nservices = 2;
          flows_per_service = fps;
        }
      | _ -> failwith "synthetic"
    in
    match spec () with
    | spec -> Some (Ok spec)
    | exception _ ->
      Some
        (Error (path ^ ": expected synthetic:NACTORS-NFIELDS-FLOWS[@SEED]")))

let actor_name i = Printf.sprintf "Actor%d" i
let store_name i = Printf.sprintf "Store%d" i
let field_at i = Field.make (Printf.sprintf "Field%d" i)

let subset rng fields =
  let chosen = List.filter (fun _ -> Prng.bool rng) fields in
  match chosen with [] -> [ List.nth fields (Prng.int rng (List.length fields)) ] | l -> l

let model spec =
  if spec.nactors < 1 || spec.nfields < 1 || spec.nstores < 1 then
    invalid_arg "Synthetic.model: need at least one actor, field and store";
  let rng = Prng.create ~seed:spec.seed in
  let fields = List.init spec.nfields field_at in
  let actors = List.init spec.nactors (fun i -> Actor.make (actor_name i)) in
  let datastores =
    List.init spec.nstores (fun i ->
        Datastore.make ~id:(store_name i)
          ~schemas:[ Schema.make ~id:(Printf.sprintf "Schema%d" i) ~fields ]
          ())
  in
  (* Track which (actor, store, perm) grants the services require. *)
  let grants = Hashtbl.create 16 in
  let need actor store perm = Hashtbl.replace grants (actor, store, perm) () in
  let services =
    List.init spec.nservices (fun s ->
        let svc_id = Printf.sprintf "Service%d" s in
        let order = ref 0 in
        let next () = incr order; !order in
        let rand_actor () = actor_name (Prng.int rng spec.nactors) in
        let rand_store () = store_name (Prng.int rng spec.nstores) in
        let first_actor = rand_actor () in
        let opening =
          Flow.make ~order:(next ()) ~src:Flow.User
            ~dst:(Flow.Actor first_actor) ~fields:(subset rng fields)
            ~purpose:svc_id
        in
        (* Keep every flow executable in strict order: creates are
           authorship (always enabled); reads draw their fields from what
           an earlier flow of this service created in that store. *)
        let written : (string, Field.t list) Hashtbl.t = Hashtbl.create 4 in
        let body =
          List.init (max 0 (spec.flows_per_service - 1)) (fun _ ->
              let actor = rand_actor () in
              let readable_stores =
                Hashtbl.fold (fun store fs acc -> (store, fs) :: acc) written []
              in
              match readable_stores with
              | (store, fs) :: _ when Prng.bool rng ->
                need actor store Permission.Read;
                Flow.make ~order:(next ()) ~src:(Flow.Store store)
                  ~dst:(Flow.Actor actor) ~fields:(subset rng fs)
                  ~purpose:svc_id
              | _ ->
                let store = rand_store () in
                let fs = subset rng fields in
                need actor store Permission.Write;
                Hashtbl.replace written store
                  (Mdp_prelude.Listx.dedup
                     (fs
                     @ Option.value (Hashtbl.find_opt written store) ~default:[]));
                Flow.make ~order:(next ()) ~src:(Flow.Actor actor)
                  ~dst:(Flow.Store store) ~fields:fs ~purpose:svc_id)
        in
        Service.make ~id:svc_id ~flows:(opening :: body))
  in
  let required_entries =
    Hashtbl.fold
      (fun (actor, store, perm) () acc ->
        Acl.allow (Acl.Actor_subject actor) ~store [ perm ] :: acc)
      grants []
  in
  (* Gratuitous read grants create §IV-A-style potential-read risks. *)
  let gratuitous =
    List.init spec.nstores (fun i ->
        Acl.allow
          (Acl.Actor_subject (actor_name (Prng.int rng spec.nactors)))
          ~store:(store_name i) [ Permission.Read ])
  in
  (* Maintenance Delete grants (§III-A): one random deleter per store,
     drawn after every other draw so the diagram and the grants above
     keep their shape across seeds. With potential deletes off these
     never touch the LTS — only the maintenance-exposure term — which
     makes them the incremental sweep's interactive candidates. *)
  let maintenance =
    List.init spec.nstores (fun i ->
        Acl.allow
          (Acl.Actor_subject (actor_name (Prng.int rng spec.nactors)))
          ~store:(store_name i) [ Permission.Delete ])
  in
  let diagram = Diagram.make_exn ~actors ~datastores ~services in
  (diagram, Mdp_policy.Policy.make (required_entries @ gratuitous @ maintenance))

let profile spec diagram =
  let rng = Prng.create ~seed:(spec.seed + 1) in
  let agreed =
    List.filteri
      (fun i _ -> i < max 1 (spec.nservices / 2))
      (List.map (fun (s : Service.t) -> s.id) diagram.Diagram.services)
  in
  let sensitivities =
    List.filter_map
      (fun f ->
        match Prng.int rng 3 with
        | 0 -> Some (f, 0.9)
        | 1 -> Some (f, 0.4)
        | _ -> None)
      (Diagram.all_fields diagram)
  in
  Mdp_core.User_profile.make ~sensitivities ~agreed_services:agreed ()

let dataset ~seed ~rows ~quasi =
  if quasi < 1 then invalid_arg "Synthetic.dataset: need at least one quasi";
  let rng = Prng.create ~seed in
  let attrs =
    List.init quasi (fun i ->
        A.Attribute.make ~name:(Printf.sprintf "Q%d" i) ~kind:A.Attribute.Quasi)
    @ [ A.Attribute.make ~name:"S" ~kind:A.Attribute.Sensitive ]
  in
  (* Array-direct so a million-row bench input never materialises row
     lists; Dataset.init calls f in row-major order, so the per-row
     draw sequence (quasi columns ascending, then the sensitive draw
     conditioned on the row's Q0) stays deterministic in the seed. *)
  let q0 = ref 0 in
  A.Dataset.init ~attrs ~nrows:rows ~f:(fun ~row:_ ~col ->
      if col < quasi then begin
        let v = Prng.int rng 100 in
        if col = 0 then q0 := v;
        A.Value.Int v
      end
      else
        A.Value.Float
          (Float.round
             (Float.max 0.0
                (Prng.gaussian rng
                   ~mean:(float_of_int (2 * !q0))
                   ~stddev:10.0))))

let scheme_for ~quasi =
  List.init quasi (fun i ->
      (Printf.sprintf "Q%d" i, A.Hierarchy.numeric ~widths:[ 10.0; 25.0 ] ()))
