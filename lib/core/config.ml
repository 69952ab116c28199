open Mdp_prelude

type t = {
  privacy : Privacy_state.t;
  stores : Bitset.t array;
  executed : Bitset.t;
}

let initial u =
  {
    privacy = Privacy_state.absolute u;
    stores =
      Array.init (Universe.nstores u) (fun _ -> Bitset.create (Universe.nfields u));
    executed = Bitset.create (max 1 (Universe.nflows u));
  }

(* Exploration dedups on packed words, never on configs; [equal] and
   [hash] serve config-keyed tables outside it.
   The [==] fast paths pay off on configs that share bitsets. *)
let equal a b =
  a == b
  || Privacy_state.equal a.privacy b.privacy
     && Bitset.equal a.executed b.executed
     && (a.stores == b.stores || Array.for_all2 Bitset.equal a.stores b.stores)

(* Multiply-xor combining leaves the low bits badly clustered on sparse
   bitset words, and [Hashtbl] buckets by low bits only — without a final
   avalanche step, large state spaces degenerate into a few hundred
   buckets with chains over a hundred deep. *)
let fmix h =
  let h = h lxor (h lsr 33) in
  let h = h * 0xff51afd7ed558cc in
  let h = h lxor (h lsr 33) in
  let h = h * 0xc4ceb9fe1a85ec5 in
  h lxor (h lsr 33)

let hash t =
  let h = ref (Privacy_state.hash t.privacy) in
  Array.iter (fun s -> h := (!h * 65599) lxor Bitset.hash s) t.stores;
  fmix ((!h * 65599) lxor Bitset.hash t.executed) land max_int

(* Packed-word codec: a config is exactly the payload words of its
   bitsets, laid out has / could / stores (in index order) / executed.
   The packed LTS engine stores only these words; [of_words] rebuilds a
   config from them using any same-universe config as the shape
   template (word counts and bit capacities are universe constants). *)
let nwords t =
  let acc = ref (Bitset.word_count t.privacy.has + Bitset.word_count t.privacy.could) in
  Array.iter (fun s -> acc := !acc + Bitset.word_count s) t.stores;
  !acc + Bitset.word_count t.executed

let blit_words t dst off =
  let off = Bitset.blit_words t.privacy.has dst off in
  let off = Bitset.blit_words t.privacy.could dst off in
  let off = Array.fold_left (fun off s -> Bitset.blit_words s dst off) off t.stores in
  Bitset.blit_words t.executed dst off

let of_words ~template src off =
  let pos = ref off in
  let take tmpl =
    let b = Bitset.of_words ~length:(Bitset.length tmpl) src !pos in
    pos := !pos + Bitset.word_count tmpl;
    b
  in
  let has = take template.privacy.has in
  let could = take template.privacy.could in
  let stores = Array.map take template.stores in
  let executed = take template.executed in
  { privacy = { Privacy_state.has; could }; stores; executed }

let executed t ~flow = Bitset.get t.executed flow
