type t = { len : int; words : int array }

let bits_per_word = 63

let nwords len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitset.create";
  { len; words = Array.make (max 1 (nwords len)) 0 }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset: index out of bounds"

let get t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let set t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let popcount =
  (* Kernighan's loop: words are sparse in privacy states. *)
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  fun w -> go 0 w

let same_len a b =
  if a.len <> b.len then invalid_arg "Bitset: length mismatch"

let equal a b =
  same_len a b;
  (* Copy-on-write consumers share word arrays heavily; the physical
     checks make equality O(1) on shared substructure. *)
  a == b || a.words == b.words || Array.for_all2 ( = ) a.words b.words

let hash t =
  Array.fold_left (fun acc w -> (acc * 1000003) lxor w) t.len t.words

let union_into ~dst src =
  same_len dst src;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) lor w) src.words

let subset a b =
  same_len a b;
  let rec go i =
    i = Array.length a.words
    || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1))
  in
  go 0

(* Index of the lowest set bit of a one-bit word. *)
let lsb_index lsb = popcount (lsb - 1)

let iter f t =
  (* Word-skipping: empty words cost one comparison, set bits are
     extracted lowest-first so indices come out in increasing order. *)
  for w = 0 to Array.length t.words - 1 do
    let bits = ref t.words.(w) in
    while !bits <> 0 do
      let lsb = !bits land - !bits in
      f ((w * bits_per_word) + lsb_index lsb);
      bits := !bits land lnot lsb
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list len l =
  let t = create len in
  List.iter (set t) l;
  t

let range_check t pos len =
  if len < 0 || len > bits_per_word || pos < 0 || pos + len > t.len then
    invalid_arg "Bitset: word range out of bounds"

let word_mask len = if len >= bits_per_word then lnot 0 else (1 lsl len) - 1

let extract t ~pos ~len =
  range_check t pos len;
  if len = 0 then 0
  else begin
    let w = pos / bits_per_word and off = pos mod bits_per_word in
    let lo = t.words.(w) lsr off in
    let v =
      if off + len <= bits_per_word then lo
      else lo lor (t.words.(w + 1) lsl (bits_per_word - off))
    in
    v land word_mask len
  end

let word_count t = Array.length t.words

let blit_words t dst off =
  let n = Array.length t.words in
  Array.blit t.words 0 dst off n;
  off + n

let of_words ~length src off =
  let n = max 1 (nwords length) in
  { len = length; words = Array.sub src off n }
