module Nat = Zkdet_num.Nat
module Fp = Zkdet_field.Bn254.Fp
module Fr = Zkdet_field.Bn254.Fr

let fr = Alcotest.testable Fr.pp Fr.equal
let fp = Alcotest.testable Fp.pp Fp.equal

let rng = Test_util.rng ~salt:"field" ()

let test_constants () =
  Alcotest.(check int) "Fp bits" 254 Fp.num_bits;
  Alcotest.(check int) "Fr bits" 254 Fr.num_bits;
  Alcotest.(check int) "Fr two-adicity" 28 Fr.two_adicity;
  Alcotest.(check string) "one" "1" (Fr.to_string Fr.one);
  Alcotest.(check string) "zero" "0" (Fr.to_string Fr.zero)

let test_add_mul_known () =
  (* (p - 1) + 2 = 1 mod p *)
  let pm1 = Fr.of_nat (Nat.sub Fr.modulus Nat.one) in
  Alcotest.check fr "wraparound add" Fr.one (Fr.add pm1 (Fr.of_int 2));
  Alcotest.check fr "(-1)^2 = 1" Fr.one (Fr.mul pm1 pm1);
  Alcotest.check fr "of_int neg" pm1 (Fr.of_int (-1));
  Alcotest.check fr "3*4=12" (Fr.of_int 12) (Fr.mul (Fr.of_int 3) (Fr.of_int 4))

let test_inv () =
  for _ = 1 to 20 do
    let x = Fr.random rng in
    if not (Fr.is_zero x) then
      Alcotest.check fr "x * x^-1 = 1" Fr.one (Fr.mul x (Fr.inv x))
  done;
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Fr.inv Fr.zero))

let test_pow () =
  let x = Fr.of_int 3 in
  Alcotest.check fr "x^5" (Fr.of_int 243) (Fr.pow x 5);
  Alcotest.check fr "x^0" Fr.one (Fr.pow x 0);
  (* Fermat: x^(r-1) = 1 *)
  let y = Fr.random rng in
  if not (Fr.is_zero y) then
    Alcotest.check fr "fermat" Fr.one (Fr.pow_nat y (Nat.sub Fr.modulus Nat.one))

let test_bytes_roundtrip () =
  for _ = 1 to 10 do
    let x = Fp.random rng in
    let b = Fp.to_bytes_be x in
    Alcotest.(check int) "32 bytes" 32 (String.length b);
    Alcotest.check fp "roundtrip" x (Fp.of_bytes_be b)
  done

let test_roots_of_unity () =
  for k = 0 to 10 do
    let w = Fr.root_of_unity ~log2size:k in
    Alcotest.check fr
      (Printf.sprintf "w^(2^%d) = 1" k)
      Fr.one
      (Fr.pow_nat w (Nat.pow Nat.two k));
    if k > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "w^(2^%d) <> 1" (k - 1))
        false
        (Fr.is_one (Fr.pow_nat w (Nat.pow Nat.two (k - 1))))
  done

let test_sqrt () =
  let found = ref 0 in
  for _ = 1 to 30 do
    let x = Fr.random rng in
    let sq = Fr.sqr x in
    (match Fr.sqrt sq with
    | None -> Alcotest.fail "square must have a root"
    | Some r ->
      incr found;
      Alcotest.(check bool) "root of square" true
        (Fr.equal (Fr.sqr r) sq))
  done;
  Alcotest.(check bool) "found roots" true (!found = 30);
  (* Roughly half of random elements are non-squares. *)
  let nonsq = ref 0 in
  for _ = 1 to 100 do
    if not (Fr.is_square (Fr.random rng)) then incr nonsq
  done;
  Alcotest.(check bool) "nonsquares exist" true (!nonsq > 20 && !nonsq < 80)

let test_batch_inv () =
  let xs = Array.init 50 (fun i -> Fr.of_int (i + 1)) in
  let invs = Fr.batch_inv xs in
  Array.iteri
    (fun i x -> Alcotest.check fr "x * batch_inv x = 1" Fr.one (Fr.mul x invs.(i)))
    xs;
  Alcotest.(check int) "empty batch" 0 (Array.length (Fr.batch_inv [||]));
  Alcotest.check_raises "zero in batch" Division_by_zero (fun () ->
      ignore (Fr.batch_inv [| Fr.one; Fr.zero; Fr.of_int 3 |]))

let gen_fr = QCheck.Gen.map (fun i ->
    Fr.add (Fr.of_int i) (Fr.random (Random.State.make [| i |])))
    QCheck.Gen.int

let arb_fr = QCheck.make ~print:Fr.to_string gen_fr

let field_axioms =
  [ QCheck.Test.make ~name:"add assoc" ~count:100
      (QCheck.triple arb_fr arb_fr arb_fr) (fun (a, b, c) ->
        Fr.(equal (add (add a b) c) (add a (add b c))));
    QCheck.Test.make ~name:"mul assoc" ~count:100
      (QCheck.triple arb_fr arb_fr arb_fr) (fun (a, b, c) ->
        Fr.(equal (mul (mul a b) c) (mul a (mul b c))));
    QCheck.Test.make ~name:"mul comm" ~count:100 (QCheck.pair arb_fr arb_fr)
      (fun (a, b) -> Fr.(equal (mul a b) (mul b a)));
    QCheck.Test.make ~name:"distributivity" ~count:100
      (QCheck.triple arb_fr arb_fr arb_fr) (fun (a, b, c) ->
        Fr.(equal (mul a (add b c)) (add (mul a b) (mul a c))));
    QCheck.Test.make ~name:"sub inverse of add" ~count:100
      (QCheck.pair arb_fr arb_fr) (fun (a, b) ->
        Fr.(equal a (sub (add a b) b)));
    QCheck.Test.make ~name:"neg" ~count:100 arb_fr (fun a ->
        Fr.(is_zero (add a (neg a))));
    QCheck.Test.make ~name:"sqr = mul self" ~count:100 arb_fr (fun a ->
        Fr.(equal (sqr a) (mul a a)));
    QCheck.Test.make ~name:"div inverse of mul" ~count:100
      (QCheck.pair arb_fr arb_fr) (fun (a, b) ->
        QCheck.assume (not (Fr.is_zero b));
        Fr.(equal a (div (mul a b) b)));
    QCheck.Test.make ~name:"nat roundtrip" ~count:100 arb_fr (fun a ->
        Fr.(equal a (of_nat (to_nat a))));
    QCheck.Test.make ~name:"string roundtrip" ~count:50 arb_fr (fun a ->
        Fr.(equal a (of_string (to_string a)))) ]

(* ---- differential: the field kernel against a Nat reference ----

   [Ref] is the textbook field: residues mod p held as plain Nat values,
   each operation its definition followed by a remainder.  It shares
   nothing with Fp64 (no Montgomery form, no 64-bit limbs, no C) beyond
   Nat itself, so a wrong carry or reduction in the kernel shows up as a
   mismatch.  Comparisons go through canonical big-endian bytes. *)

module Ref (M : sig
  val modulus : Nat.t
end) =
struct
  let p = M.modulus
  let reduce n = Nat.rem n p
  let add a b = reduce (Nat.add a b)
  let neg a = if Nat.is_zero a then a else Nat.sub p a
  let sub a b = add a (neg b)
  let mul a b = reduce (Nat.mul a b)
  let sqr a = mul a a
  let double a = add a a

  (* Square-and-multiply, most significant bit first. *)
  let pow a e =
    let acc = ref Nat.one in
    for i = Nat.num_bits e - 1 downto 0 do
      acc := sqr !acc;
      if Nat.testbit e i then acc := mul !acc a
    done;
    !acc

  let inv a = pow a (Nat.sub p Nat.two)

  (* Euler's criterion: a is a square iff a = 0 or a^((p-1)/2) = 1. *)
  let is_square a =
    Nat.is_zero a
    || Nat.equal (pow a (Nat.shift_right (Nat.sub p Nat.one) 1)) Nat.one
end

(* Boundary inputs: 0, 1, 2, p-2, p-1, the Montgomery radix R = 2^256 mod
   p, and 2^k, 2^k +- 1 straddling the 64-bit limb boundaries (and the
   26-bit ones of Nat), all reduced mod p. *)
let boundary_nats modulus =
  let reduce n = Nat.rem n modulus in
  let base =
    [ Nat.zero; Nat.one; Nat.two;
      Nat.sub modulus Nat.two; Nat.sub modulus Nat.one;
      reduce (Nat.pow Nat.two 256) ]
  in
  let around_powers =
    List.concat_map
      (fun k ->
        let p2 = Nat.pow Nat.two k in
        [ reduce (Nat.sub p2 Nat.one); reduce p2; reduce (Nat.add p2 Nat.one) ])
      [ 25; 26; 27; 52; 63; 64; 65; 127; 128; 191; 192; 253 ]
  in
  base @ around_powers

let random_nats rng n =
  List.init n (fun _ ->
      Nat.of_bytes_be (String.init 32 (fun _ -> Char.chr (Random.State.int rng 256))))

(* One differential run of field [F] against [Ref] over the shared input
   set. [name] tags failures. *)
module Diff (F : Zkdet_field.Field_intf.S) = struct
  module R = Ref (F)

  (* Decoding reduces (Montgomery multiplication by 1 lands below p even
     from a non-canonical input), so the bytes alone would miss a result
     left in [p, 2p).  [equal] compares representations, so it catches it. *)
  let check name (want : Nat.t) (got : F.t) =
    let want_bytes = Nat.to_bytes_be ~length:F.num_bytes want in
    let got_bytes = F.to_bytes_be got in
    if not (String.equal want_bytes got_bytes) then
      Alcotest.failf "%s: kernel %s, reference %s" name
        (Nat.to_hex (Nat.of_bytes_be got_bytes))
        (Nat.to_hex want)
    else if not (F.equal got (F.of_nat want)) then
      Alcotest.failf "%s: kernel result %s not in canonical form" name
        (Nat.to_hex want)

  let run ~name rng =
    let nats =
      List.map R.reduce (boundary_nats F.modulus @ random_nats rng 40)
    in
    let arr = Array.of_list (List.map (fun n -> (n, F.of_nat n)) nats) in
    let n = Array.length arr in
    (* The reference inverse is by far the slowest step: compute it once. *)
    let invs =
      Array.map (fun (a, _) -> if Nat.is_zero a then a else R.inv a) arr
    in
    Array.iteri
      (fun i (a, x) ->
        check (name ^ ".to_bytes_be") a x;
        check (name ^ ".neg") (R.neg a) (F.neg x);
        check (name ^ ".sqr") (R.sqr a) (F.sqr x);
        check (name ^ ".double") (R.double a) (F.double x);
        if not (Nat.is_zero a) then check (name ^ ".inv") invs.(i) (F.inv x);
        match F.sqrt x with
        | Some r ->
          if not (Nat.equal (R.sqr (F.to_nat r)) a) then
            Alcotest.failf "%s.sqrt: root does not square back" name
        | None ->
          if R.is_square a then
            Alcotest.failf "%s.sqrt: missed the root of a square" name)
      arr;
    (* binary ops: each input against one rotation of the set *)
    Array.iteri
      (fun i (a, x) ->
        let b, y = arr.((i + 7) mod n) in
        check (name ^ ".add") (R.add a b) (F.add x y);
        check (name ^ ".sub") (R.sub a b) (F.sub x y);
        check (name ^ ".mul") (R.mul a b) (F.mul x y))
      arr;
    (* buf ops over the whole input set at once, plus the fused butterfly *)
    let buf = F.buf_of_array (Array.map snd arr) in
    let d = F.buf_create 1 in
    for i = 0 to n - 1 do
      let j = (i + 11) mod n in
      F.buf_mul d 0 buf i buf j;
      check (name ^ ".buf_mul") (R.mul (fst arr.(i)) (fst arr.(j))) (F.buf_get d 0)
    done;
    let b2 = F.buf_of_array (Array.map snd arr) in
    let want = Array.map fst arr in
    for i = 0 to (n / 2) - 1 do
      let j = (n / 2) + i and k = (i + 3) mod n in
      F.buf_butterfly b2 i j buf k;
      let u = want.(i) and v = R.mul want.(j) (fst arr.(k)) in
      want.(i) <- R.add u v;
      want.(j) <- R.sub u v
    done;
    Array.iteri (fun i w -> check (name ^ ".buf_butterfly") w (F.buf_get b2 i)) want;
    (* batch inversion with every third cell zeroed *)
    let zeroed i = i mod 3 = 1 in
    let zb =
      F.buf_of_array (Array.mapi (fun i (_, x) -> if zeroed i then F.zero else x) arr)
    in
    F.buf_batch_inv0 ~scratch:(F.buf_create (n + 2)) zb n;
    Array.iteri
      (fun i w ->
        let w = if zeroed i then Nat.zero else w in
        check (name ^ ".buf_batch_inv0") w (F.buf_get zb i))
      invs
end

module Diff_fr = Diff (Zkdet_field.Bn254.Fr_unboxed)
module Diff_fp = Diff (Zkdet_field.Bn254.Fp_unboxed)

let test_differential_fr () =
  Diff_fr.run ~name:"Fr" (Test_util.rng ~salt:"field-diff-fr" ())

let test_differential_fp () =
  Diff_fp.run ~name:"Fp" (Test_util.rng ~salt:"field-diff-fp" ())

(* SHA-256 over the canonical bytes of the first 200 [random] draws from
   [Random.State.make [| 0x5eed |]].  The SRS and the proof blinding
   consume this stream, so a change to [random]'s draw pattern changes
   every proof; the digest pins the stream as it has always been.  p and
   r agree in their top 126 bits, so the rejection sampler accepts the
   same draws in both fields and the two streams hash alike. *)
let random_stream_digest =
  "f30d47ca3b7028cbb9823a132eeb381de2d079cc8634af30093fea5643643256"

let test_random_streams () =
  let digest (module F : Zkdet_field.Field_intf.S) =
    let st = Random.State.make [| 0x5eed |] in
    Zkdet_hash.Sha256.digest_hex
      (String.concat "" (List.init 200 (fun _ -> F.to_bytes_be (F.random st))))
  in
  Alcotest.(check string) "Fr stream" random_stream_digest (digest (module Fr));
  Alcotest.(check string) "Fp stream" random_stream_digest (digest (module Fp))

(* The active Fr's canonical codec against the reference encoding (plain
   big-endian bytes of the residue), and its range check. *)
let test_codec_cross_backend () =
  let rng = Test_util.rng ~salt:"field-codec" () in
  List.iter
    (fun n ->
      let n = Nat.rem n Fr.modulus in
      let want = Nat.to_bytes_be ~length:32 n in
      Alcotest.(check string) "encode" want (Fr.to_bytes_be (Fr.of_nat n));
      match Fr.of_bytes_be_canonical want with
      | Ok x -> Alcotest.(check string) "decode" (Nat.to_hex n) (Nat.to_hex (Fr.to_nat x))
      | Error e -> Alcotest.failf "canonical decode rejected an in-range value: %s" e)
    (boundary_nats Fr.modulus @ random_nats rng 50);
  List.iter
    (fun bad ->
      match Fr.of_bytes_be_canonical bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted out-of-range %S" (Nat.to_hex (Nat.of_bytes_be bad)))
    [ Nat.to_bytes_be ~length:32 Fr.modulus;
      Nat.to_bytes_be ~length:32 (Nat.add Fr.modulus Nat.one);
      String.make 32 '\xff';
      String.make 31 '\x00';
      String.make 33 '\x00' ]

let () =
  Alcotest.run "zkdet_field"
    [ ( "bn254",
        [ Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "add/mul known values" `Quick test_add_mul_known;
          Alcotest.test_case "inverse" `Quick test_inv;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "roots of unity" `Quick test_roots_of_unity;
          Alcotest.test_case "sqrt" `Quick test_sqrt;
          Alcotest.test_case "batch inversion" `Quick test_batch_inv ] );
      ( "differential",
        [ Alcotest.test_case "Fr unboxed64 vs Nat reference" `Quick
            test_differential_fr;
          Alcotest.test_case "Fp unboxed64 vs Nat reference" `Quick
            test_differential_fp;
          Alcotest.test_case "random streams agree" `Quick test_random_streams;
          Alcotest.test_case "codecs cross-backend" `Quick
            test_codec_cross_backend ] );
      ("field-axioms", List.map QCheck_alcotest.to_alcotest field_axioms) ]
