open Mdp_dataflow
open Mdp_prelude

type t = {
  diagram : Diagram.t;
  policy : Mdp_policy.Policy.t;
  actors : Interner.t;
  fields : Field.t array;
  field_ids : (string, int) Hashtbl.t; (* keyed by Field.name *)
  stores : Interner.t;
  flows : (Service.t * Flow.t) array;
  (* Caches derived from the policy; rebuilt by [with_policy]. *)
  readers_cache : int list array array; (* store -> field -> actors *)
  readable_cache : int list array array; (* actor -> store -> fields *)
  deleters_cache : int list array; (* store -> actors *)
  readable_bits_cache : Bitset.t array array;
      (* actor -> store -> field bitset; the permission matrix the
         generator intersects with store contents instead of re-querying
         [Policy.allows] per state. *)
  readable_anywhere_cache : Bitset.t array;
      (* actor -> field bitset: union of [readable_bits_cache] over all
         stores — "may the actor read this field from *some* store",
         the store-independent access question §III-B asks. *)
}

let nactors t = Interner.size t.actors
let nfields t = Array.length t.fields
let nstores t = Interner.size t.stores
let nflows t = Array.length t.flows
let nvars t = nactors t * nfields t

let diagram t = t.diagram
let policy t = t.policy

let actor_index t id = Interner.find_exn t.actors id
let actor_name t i = Interner.name t.actors i

let field_index t f =
  match Hashtbl.find_opt t.field_ids (Field.name f) with
  | Some i -> i
  | None -> raise Not_found

let field_at t i = t.fields.(i)

let store_index t id = Interner.find_exn t.stores id
let store_name t i = Interner.name t.stores i

let store_at t i =
  Option.get (Diagram.find_store t.diagram (store_name t i))

let flow_at t i = t.flows.(i)

let var t ~actor ~field = (actor * nfields t) + field
let var_actor t v = v / nfields t
let var_field t v = v mod nfields t

let build_caches diagram policy actors fields stores =
  let na = Interner.size actors
  and nf = Array.length fields
  and ns = Interner.size stores in
  let readers = Array.init ns (fun _ -> Array.make nf []) in
  let readable = Array.init na (fun _ -> Array.make ns []) in
  let deleters = Array.make ns [] in
  for s = ns - 1 downto 0 do
    let store = Option.get (Diagram.find_store diagram (Interner.name stores s)) in
    for a = na - 1 downto 0 do
      let actor = Interner.name actors a in
      let can =
        Mdp_policy.Policy.allows_at policy ~diagram ~actor ~store:store.id
      in
      for f = nf - 1 downto 0 do
        let field = fields.(f) in
        if Datastore.mem store field then begin
          if can Mdp_policy.Permission.Read field then begin
            readers.(s).(f) <- a :: readers.(s).(f);
            readable.(a).(s) <- f :: readable.(a).(s)
          end;
          if
            can Mdp_policy.Permission.Delete field
            && not (List.mem a deleters.(s))
          then deleters.(s) <- a :: deleters.(s)
        end
      done
    done
  done;
  let readable_bits =
    Array.init na (fun a ->
        Array.init ns (fun s -> Bitset.of_list nf readable.(a).(s)))
  in
  let readable_anywhere =
    Array.init na (fun a ->
        let acc = Bitset.create nf in
        Array.iter (fun bits -> Bitset.union_into ~dst:acc bits) readable_bits.(a);
        acc)
  in
  (readers, readable, deleters, readable_bits, readable_anywhere)

let make diagram policy =
  (match Mdp_policy.Policy.validate policy diagram with
  | Ok () -> ()
  | Error msgs ->
    invalid_arg ("Universe.make: invalid policy:\n" ^ String.concat "\n" msgs));
  let actors =
    Interner.of_list (List.map (fun (a : Actor.t) -> a.id) diagram.actors)
  in
  let fields = Array.of_list (Diagram.all_fields diagram) in
  let field_ids = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace field_ids (Field.name f) i) fields;
  let stores =
    Interner.of_list (List.map (fun (d : Datastore.t) -> d.id) diagram.datastores)
  in
  let flows = Array.of_list (Diagram.all_flows diagram) in
  let ( readers_cache,
        readable_cache,
        deleters_cache,
        readable_bits_cache,
        readable_anywhere_cache ) =
    build_caches diagram policy actors fields stores
  in
  {
    diagram;
    policy;
    actors;
    fields;
    field_ids;
    stores;
    flows;
    readers_cache;
    readable_cache;
    deleters_cache;
    readable_bits_cache;
    readable_anywhere_cache;
  }

let with_policy t policy =
  (match Mdp_policy.Policy.validate policy t.diagram with
  | Ok () -> ()
  | Error msgs ->
    invalid_arg
      ("Universe.with_policy: invalid policy:\n" ^ String.concat "\n" msgs));
  let ( readers_cache,
        readable_cache,
        deleters_cache,
        readable_bits_cache,
        readable_anywhere_cache ) =
    build_caches t.diagram policy t.actors t.fields t.stores
  in
  {
    t with
    policy;
    readers_cache;
    readable_cache;
    deleters_cache;
    readable_bits_cache;
    readable_anywhere_cache;
  }

let readers t ~store ~field = t.readers_cache.(store).(field)
let deleters t ~store = t.deleters_cache.(store)
let readable_by t ~actor ~store = t.readable_cache.(actor).(store)
let readable_bits t ~actor ~store = t.readable_bits_cache.(actor).(store)
let readable_anywhere t ~actor = t.readable_anywhere_cache.(actor)
