module Nat = Zkdet_num.Nat

let nat = Alcotest.testable Nat.pp Nat.equal

let check_nat = Alcotest.check nat

let test_of_to_int () =
  Alcotest.(check (option int)) "roundtrip 0" (Some 0) Nat.(to_int zero);
  Alcotest.(check (option int)) "roundtrip 1" (Some 1) Nat.(to_int one);
  let v = 123_456_789_012_345 in
  Alcotest.(check (option int)) "roundtrip large" (Some v) Nat.(to_int (of_int v))

let test_decimal_roundtrip () =
  let cases =
    [ "0"; "1"; "9"; "10"; "4294967296"; "18446744073709551616";
      "21888242871839275222246405745257275088696311157297823662689037894645226208583" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string) s s Nat.(to_decimal (of_decimal s)))
    cases

let test_hex_roundtrip () =
  let n = Nat.of_decimal "340282366920938463463374607431768211455" in
  check_nat "hex roundtrip" n (Nat.of_hex (Nat.to_hex n));
  Alcotest.(check string) "ff" "ff" Nat.(to_hex (of_int 255));
  check_nat "0x prefix" (Nat.of_int 255) (Nat.of_hex "0xFF")

let test_add_sub () =
  let a = Nat.of_decimal "987654321098765432109876543210" in
  let b = Nat.of_decimal "123456789012345678901234567890" in
  let s = Nat.add a b in
  check_nat "a+b-b = a" a (Nat.sub s b);
  check_nat "a+b-a = b" b (Nat.sub s a);
  Alcotest.(check string)
    "sum" "1111111110111111111011111111100" (Nat.to_decimal s);
  Alcotest.check_raises "negative sub" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (Nat.sub b a))

let test_mul () =
  let a = Nat.of_decimal "123456789012345678901234567890" in
  let b = Nat.of_decimal "999999999999999999999999999999" in
  Alcotest.(check string)
    "product"
    "123456789012345678901234567889876543210987654321098765432110"
    Nat.(to_decimal (mul a b));
  check_nat "mul zero" Nat.zero (Nat.mul a Nat.zero);
  check_nat "mul one" a (Nat.mul a Nat.one)

let test_divmod () =
  let a = Nat.of_decimal "123456789012345678901234567890123456789" in
  let b = Nat.of_decimal "987654321987654321" in
  let q, r = Nat.divmod a b in
  check_nat "a = q*b + r" a Nat.(add (mul q b) r);
  Alcotest.(check bool) "r < b" true (Nat.compare r b < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod a Nat.zero));
  let q2, r2 = Nat.divmod b a in
  check_nat "small/large quotient" Nat.zero q2;
  check_nat "small/large remainder" b r2

let test_shifts () =
  let a = Nat.of_decimal "123456789012345678901234567890" in
  check_nat "shl then shr" a Nat.(shift_right (shift_left a 137) 137);
  check_nat "shl = mul 2^k" (Nat.mul a (Nat.pow Nat.two 63)) (Nat.shift_left a 63);
  check_nat "shr drops" (Nat.div a (Nat.pow Nat.two 10)) (Nat.shift_right a 10)

let test_bits () =
  Alcotest.(check int) "bits 0" 0 (Nat.num_bits Nat.zero);
  Alcotest.(check int) "bits 1" 1 (Nat.num_bits Nat.one);
  Alcotest.(check int) "bits 2^100" 101 (Nat.num_bits (Nat.pow Nat.two 100));
  Alcotest.(check bool) "bit 100 set" true (Nat.testbit (Nat.pow Nat.two 100) 100);
  Alcotest.(check bool) "bit 99 clear" false (Nat.testbit (Nat.pow Nat.two 100) 99)

let test_bytes () =
  let n = Nat.of_hex "0102030405060708090a" in
  let s = Nat.to_bytes_be ~length:12 n in
  Alcotest.(check int) "padded length" 12 (String.length s);
  check_nat "bytes roundtrip" n (Nat.of_bytes_be s);
  Alcotest.(check char) "padding" '\x00' s.[0];
  Alcotest.(check char) "low byte" '\x0a' s.[11]

let test_pow () =
  Alcotest.(check string) "2^128" "340282366920938463463374607431768211456"
    Nat.(to_decimal (pow two 128));
  check_nat "x^0" Nat.one (Nat.pow (Nat.of_int 12345) 0)

(* ---- byte conversions against the previous bitwise code ----

   [of_bytes_be]/[to_bytes_be] pack bytes into 26-bit limbs in one pass.
   The oracles below are test-local copies of the earlier shift-add and
   per-bit implementations, which share nothing with the packing loops. *)

let oracle_of_bytes_be s =
  let acc = ref Nat.zero in
  String.iter
    (fun c -> acc := Nat.add (Nat.shift_left !acc 8) (Nat.of_int (Char.code c)))
    s;
  !acc

let oracle_to_bytes_be ~length n =
  if Nat.num_bits n > 8 * length then invalid_arg "Nat.to_bytes_be: overflow";
  String.init length (fun i ->
      let byte_idx = length - 1 - i in
      let v = ref 0 in
      for b = 7 downto 0 do
        v := (!v lsl 1) lor if Nat.testbit n ((8 * byte_idx) + b) then 1 else 0
      done;
      Char.chr !v)

module G = Zkdet_proptest.Gen
module P = Zkdet_proptest.Proptest

let bytes_of_list l = String.init (List.length l) (List.nth l)

let gen_uniform_bytes =
  G.bind (G.int_range 0 40) (fun len ->
      G.map bytes_of_list (G.list_size (G.return len) (G.map Char.chr (G.int_range 0 255))))

(* Byte [k] (from the least significant end) straddles a limb boundary
   when a multiple of 26 falls strictly inside its 8 bits. *)
let straddles k = (8 * k) / Nat.limb_bits <> ((8 * k) + 7) / Nat.limb_bits

let gen_bytes =
  G.oneof
    [ gen_uniform_bytes;
      (* leading zero bytes in front of arbitrary ones *)
      G.map2
        (fun z s ->
          let s = String.make z '\x00' ^ s in
          String.sub s 0 (min 40 (String.length s)))
        (G.int_range 1 40) gen_uniform_bytes;
      G.map (fun len -> String.make len '\xff') (G.int_range 0 40);
      (* one non-zero byte on a limb boundary, zeros elsewhere *)
      G.bind (G.int_range 1 40) (fun len ->
          G.map2
            (fun k v ->
              let ks = List.filter straddles (List.init len Fun.id) in
              let k = if ks = [] then 0 else List.nth ks (k mod List.length ks) in
              String.init len (fun i ->
                  if i = len - 1 - k then Char.chr v else '\x00'))
            (G.int_range 0 39) (G.int_range 1 255)) ]

let print_bytes s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_of_bytes_vs_oracle () =
  P.check ~count:500 ~name:"of_bytes_be = shift-add oracle" ~print:print_bytes
    gen_bytes (fun s ->
      let got = Nat.of_bytes_be s and want = oracle_of_bytes_be s in
      Nat.equal got want && Nat.num_limbs got = Nat.num_limbs want)

let test_to_bytes_vs_oracle () =
  P.check ~count:500 ~name:"to_bytes_be = bitwise oracle" ~print:print_bytes
    gen_bytes (fun s ->
      let n = oracle_of_bytes_be s in
      let tight = (Nat.num_bits n + 7) / 8 in
      List.for_all
        (fun length ->
          String.equal
            (Nat.to_bytes_be ~length n)
            (oracle_to_bytes_be ~length n))
        [ tight; String.length s; String.length s + 3 ]
      && (tight = 0
         ||
         match Nat.to_bytes_be ~length:(tight - 1) n with
         | _ -> false
         | exception Invalid_argument _ -> true))

(* Property tests *)
let gen_nat =
  QCheck.Gen.(
    map
      (fun ds ->
        let s = String.concat "" (List.map string_of_int ds) in
        Nat.of_decimal (if s = "" then "0" else s))
      (list_size (int_range 1 30) (int_range 0 9)))

let arb_nat = QCheck.make ~print:Nat.to_decimal gen_nat

let prop_add_comm =
  QCheck.Test.make ~name:"add commutative" ~count:200 (QCheck.pair arb_nat arb_nat)
    (fun (a, b) -> Nat.(equal (add a b) (add b a)))

let prop_mul_assoc =
  QCheck.Test.make ~name:"mul associative" ~count:100
    (QCheck.triple arb_nat arb_nat arb_nat) (fun (a, b, c) ->
      Nat.(equal (mul (mul a b) c) (mul a (mul b c))))

let prop_distrib =
  QCheck.Test.make ~name:"mul distributes over add" ~count:100
    (QCheck.triple arb_nat arb_nat arb_nat) (fun (a, b, c) ->
      Nat.(equal (mul a (add b c)) (add (mul a b) (mul a c))))

let prop_divmod =
  QCheck.Test.make ~name:"divmod identity" ~count:200 (QCheck.pair arb_nat arb_nat)
    (fun (a, b) ->
      QCheck.assume (not (Nat.is_zero b));
      let q, r = Nat.divmod a b in
      Nat.(equal a (add (mul q b) r)) && Nat.compare r b < 0)

let prop_decimal_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:200 arb_nat (fun a ->
      Nat.(equal a (of_decimal (to_decimal a))))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 arb_nat (fun a ->
      Nat.(equal a (of_hex (to_hex a))))

let props = List.map QCheck_alcotest.to_alcotest
    [ prop_add_comm; prop_mul_assoc; prop_distrib; prop_divmod;
      prop_decimal_roundtrip; prop_hex_roundtrip ]

let () =
  Alcotest.run "zkdet_num"
    [ ( "nat",
        [ Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "decimal roundtrip" `Quick test_decimal_roundtrip;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "bits" `Quick test_bits;
          Alcotest.test_case "bytes" `Quick test_bytes;
          Alcotest.test_case "of_bytes_be vs oracle" `Quick test_of_bytes_vs_oracle;
          Alcotest.test_case "to_bytes_be vs oracle" `Quick test_to_bytes_vs_oracle;
          Alcotest.test_case "pow" `Quick test_pow ] );
      ("nat-properties", props) ]
