//! Parser hardening: property round-trips and malformed-input fuzz for the
//! serving layer's decoders.
//!
//! Two claims, each load-bearing for an internet-facing parser:
//!
//! 1. **Round-trip**: for any JSON value the emitter can produce,
//!    `parse(render(v)) == v` — including bit-exact `f64`s — and for any
//!    scenario, `decode(encode(s)) == s`. This is what makes served
//!    predictions identical to library calls.
//! 2. **No panics**: arbitrary byte soup — random garbage, truncations, and
//!    single-byte corruptions of *valid* documents — makes every decoder
//!    (JSON, scenario codec, HTTP request parser) return an error or a
//!    different valid parse, never panic. Each fuzz case runs the decoder
//!    inside `catch_unwind` so a panic fails the test with the offending
//!    input attached.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::BufReader;

use lopc_core::{GeneralModel, Machine, Scenario};
use lopc_serve::http::{read_request, read_response, HttpError, Request, RequestParser};
use lopc_serve::json::{parse, Json};
use lopc_serve::{scenario_from_json, scenario_to_json};

/// A random JSON value: depth-bounded, with finite numbers drawn across
/// magnitudes (including exact integers, the emitter's special case).
fn random_json(rng: &mut SmallRng, depth: usize) -> Json {
    let choice = if depth == 0 {
        rng.random_range(0..4usize) // leaves only
    } else {
        rng.random_range(0..6usize)
    };
    match choice {
        0 => Json::Null,
        1 => Json::Bool(rng.random::<f64>() < 0.5),
        2 => {
            let mag = rng.random_range(-12.0..15.0f64);
            let x = (rng.random::<f64>() - 0.5) * 10f64.powf(mag);
            // Mix in exact integers half the time.
            Json::Num(if rng.random::<f64>() < 0.5 {
                x.trunc()
            } else {
                x
            })
        }
        3 => {
            let len = rng.random_range(0..12usize);
            Json::Str(
                (0..len)
                    .map(|_| {
                        // Printable ASCII, escapes, a control char, and a
                        // multi-byte char.
                        match rng.random_range(0..8usize) {
                            0 => '"',
                            1 => '\\',
                            2 => '\n',
                            3 => '\u{1}',
                            4 => 'é',
                            _ => (b'a' + rng.random_range(0..26usize) as u8) as char,
                        }
                    })
                    .collect(),
            )
        }
        4 => {
            let len = rng.random_range(0..5usize);
            Json::Array((0..len).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.random_range(0..5usize);
            Json::Object(
                (0..len)
                    .map(|i| (format!("k{i}"), random_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// A random valid scenario (parameters may be model-invalid — the codec
/// must round-trip them regardless; validation is the solver's job).
fn random_scenario(rng: &mut SmallRng) -> Scenario {
    let machine = Machine::new(
        rng.random_range(2..64usize),
        rng.random_range(0.0..500.0f64),
        rng.random_range(0.0..1000.0f64),
    )
    .with_c2(rng.random_range(0.0..4.0f64));
    let w = rng.random_range(0.0..5000.0f64);
    match rng.random_range(0..5usize) {
        0 => Scenario::AllToAll { machine, w },
        1 => Scenario::ClientServer {
            machine,
            w,
            ps: if rng.random::<f64>() < 0.5 {
                None
            } else {
                Some(rng.random_range(1..machine.p))
            },
        },
        2 => Scenario::ForkJoin {
            machine,
            w,
            k: rng.random_range(1..8u32),
        },
        3 => Scenario::SharedMemory { machine, w },
        _ => {
            let mut model = GeneralModel::homogeneous_all_to_all(machine, w);
            if rng.random::<f64>() < 0.3 {
                model = model.with_protocol_processor();
            }
            if rng.random::<f64>() < 0.5 {
                model.w[0] = None;
                for x in &mut model.v[0] {
                    *x = 0.0;
                }
            }
            Scenario::General(model)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Value → JSON text → value, both renderers.
    #[test]
    fn json_round_trip(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let v = random_json(&mut rng, 3);
        let pretty = parse(&v.to_pretty());
        prop_assert!(pretty.is_ok(), "pretty parse failed: {:?}", pretty);
        prop_assert_eq!(pretty.unwrap(), v.clone());
        let compact = parse(&v.to_compact());
        prop_assert!(compact.is_ok(), "compact parse failed: {:?}", compact);
        prop_assert_eq!(compact.unwrap(), v);
    }

    /// Scenario → wire object → scenario, exactly.
    #[test]
    fn scenario_round_trip(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let s = random_scenario(&mut rng);
        let doc = scenario_to_json(&s).to_compact();
        let parsed = parse(&doc);
        prop_assert!(parsed.is_ok(), "{}", doc);
        let back = scenario_from_json(&parsed.unwrap());
        prop_assert!(back.is_ok(), "{}", doc);
        prop_assert_eq!(back.unwrap(), s);
    }
}

/// Run a decoder on hostile input, converting panics into test failures.
fn assert_no_panic<T>(input: &[u8], what: &str, f: impl Fn(&[u8]) -> T + std::panic::UnwindSafe) {
    let owned = input.to_vec();
    let result = std::panic::catch_unwind(move || {
        f(&owned);
    });
    assert!(
        result.is_ok(),
        "{what} panicked on {:?}",
        String::from_utf8_lossy(input)
    );
}

fn corrupt(base: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match rng.random_range(0..3usize) {
        0 if !bytes.is_empty() => {
            // Flip one byte to an arbitrary value.
            let i = rng.random_range(0..bytes.len());
            bytes[i] = rng.random_range(0..256usize) as u8;
        }
        1 => {
            // Truncate.
            let keep = rng.random_range(0..bytes.len().max(1));
            bytes.truncate(keep);
        }
        _ => {
            // Insert a random byte.
            let i = rng.random_range(0..bytes.len() + 1);
            bytes.insert(i, rng.random_range(0..256usize) as u8);
        }
    }
    bytes
}

#[test]
fn json_and_codec_fuzz_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x10bc);
    let mut seeds: Vec<Vec<u8>> = (0..20)
        .map(|i| {
            let mut vr = SmallRng::seed_from_u64(i);
            let s = random_scenario(&mut vr);
            scenario_to_json(&s).to_compact().into_bytes()
        })
        .collect();
    seeds.push(
        br#"{"kind":"all_to_all","machine":{"p":32,"st":25,"so":200,"c2":0},"w":1000}"#.to_vec(),
    );
    for round in 0..2000 {
        let base = &seeds[round % seeds.len()];
        let mutated = if round % 10 == 0 {
            // Pure garbage rounds.
            (0..rng.random_range(0..64usize))
                .map(|_| rng.random_range(0..256usize) as u8)
                .collect()
        } else {
            corrupt(base, &mut rng)
        };
        assert_no_panic(&mutated, "json/scenario decoder", |bytes| {
            if let Ok(text) = std::str::from_utf8(bytes) {
                if let Ok(doc) = parse(text) {
                    let _ = scenario_from_json(&doc);
                }
            }
        });
    }
}

#[test]
fn http_parsers_fuzz_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x477);
    let request =
        b"POST /v1/predict HTTP/1.1\r\nhost: x\r\ncontent-length: 13\r\n\r\n{\"kind\":\"x\"}!";
    let response =
        b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}";
    for round in 0..2000 {
        let (base, is_request): (&[u8], bool) = if round % 2 == 0 {
            (request, true)
        } else {
            (response, false)
        };
        let mutated = if round % 10 == 0 {
            (0..rng.random_range(0..96usize))
                .map(|_| rng.random_range(0..256usize) as u8)
                .collect()
        } else {
            corrupt(base, &mut rng)
        };
        if is_request {
            assert_no_panic(&mutated, "http request parser", |bytes| {
                let _ = read_request(&mut BufReader::new(bytes));
            });
        } else {
            assert_no_panic(&mutated, "http response parser", |bytes| {
                let _ = read_response(&mut BufReader::new(bytes));
            });
        }
    }
}

// -- incremental vs one-shot parser ---------------------------------------
//
// The reactor parses requests with the resumable `RequestParser`, fed
// whatever fragments the socket delivers; `read_request` is the blocking
// reference. The two must agree *byte for byte* on every input and every
// split, or served behaviour would depend on TCP segmentation.

/// Reference result: the one-shot blocking parser over the whole input.
fn oneshot(input: &[u8]) -> Result<Option<Request>, HttpError> {
    read_request(&mut BufReader::new(input))
}

/// Feed `input` to the incremental parser in `chunk`-byte pieces, polling
/// after every piece; `Ok(None)` means the input ran out mid-request.
fn drip(input: &[u8], chunk: usize) -> Result<Option<Request>, HttpError> {
    let mut parser = RequestParser::new();
    for piece in input.chunks(chunk.max(1)) {
        parser.push(piece);
        match parser.poll() {
            Ok(None) => continue,
            done => return done,
        }
    }
    Ok(None)
}

/// EOF-truncation errors only the blocking parser can see: it knows the
/// stream ended, while the incremental parser just reports "need more
/// bytes" (EOF is the reactor's signal, out of band from parsing). Every
/// other error must match word for word.
fn is_eof_truncation(e: &HttpError) -> bool {
    matches!(e, HttpError::Bad(m) if m == "truncated header line"
        || m == "connection closed inside headers"
        || m == "connection closed inside body")
}

/// Assert the incremental parse of `input` split into `chunk`-byte pieces
/// is byte-for-byte equivalent to the one-shot reference.
fn assert_parsers_agree(input: &[u8], chunk: usize) {
    let reference = oneshot(input);
    let incremental = drip(input, chunk);
    match (&reference, &incremental) {
        // Complete request: identical parse, field for field, byte for
        // byte (Request derives Eq).
        (Ok(Some(a)), Ok(Some(b))) => assert_eq!(
            a,
            b,
            "chunk={chunk}: parses differ on {:?}",
            String::from_utf8_lossy(input)
        ),
        // Clean empty input: both report "nothing yet".
        (Ok(None), Ok(None)) => {}
        // The stream died mid-request: the blocking parser reports the
        // truncation; the incremental one is still waiting for bytes that
        // will never come (the reactor turns that EOF into a close).
        (Err(e), Ok(None)) if is_eof_truncation(e) => {}
        // Any other error: same error, same wording.
        (Err(HttpError::Bad(a)), Err(HttpError::Bad(b))) => assert_eq!(
            a,
            b,
            "chunk={chunk}: error wording differs on {:?}",
            String::from_utf8_lossy(input)
        ),
        _ => panic!(
            "chunk={chunk}: one-shot {reference:?} vs incremental {incremental:?} on {:?}",
            String::from_utf8_lossy(input)
        ),
    }
}

fn valid_request_corpus() -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = (0..10u64)
        .map(|i| {
            let mut vr = SmallRng::seed_from_u64(i);
            let body = scenario_to_json(&random_scenario(&mut vr)).to_compact();
            format!(
                "POST /v1/predict HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    corpus.push(b"GET /metrics HTTP/1.1\r\n\r\n".to_vec());
    corpus.push(
        b"GET /metrics?format=prom HTTP/1.1\r\naccept: text/plain\r\nconnection: close\r\n\r\n"
            .to_vec(),
    );
    corpus.push(b"GET / HTTP/1.1\nhost: x\n\n".to_vec()); // bare-LF lines
    corpus.push(b"HEAD /v1/predict? HTTP/1.1\r\nx: \xc3\xa9\r\n\r\n".to_vec());
    corpus
}

fn malformed_request_corpus() -> Vec<Vec<u8>> {
    [
        &b"GARBAGE\r\n\r\n"[..],
        b"GET /\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"GET / HTTP/1.1 extra\r\n\r\n",
        b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
        b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
        b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\nhello",
        b"GET / HTTP/1.1\r\ntrunc",
        b"\xff\xfe GET / HTTP/1.1\r\n\r\n",
        b"",
    ]
    .iter()
    .map(|b| b.to_vec())
    .collect()
}

/// Every corpus request, dripped one byte at a time — every byte boundary
/// is a resume point — plus a spread of other chunk sizes.
#[test]
fn incremental_parser_matches_oneshot_at_every_boundary() {
    let mut corpus = valid_request_corpus();
    corpus.extend(malformed_request_corpus());
    for input in &corpus {
        for chunk in [1, 2, 3, 7, input.len().max(1)] {
            assert_parsers_agree(input, chunk);
        }
    }
}

/// Two-piece splits at *every* position: the resume happens exactly once,
/// at each possible boundary (request line, header, separator, body).
#[test]
fn incremental_parser_matches_oneshot_for_every_two_piece_split() {
    for input in valid_request_corpus() {
        let reference = oneshot(&input)
            .expect("corpus is valid")
            .expect("non-empty");
        for split in 0..=input.len() {
            let mut parser = RequestParser::new();
            parser.push(&input[..split]);
            let early = parser.poll();
            let got = match early {
                Ok(Some(req)) => {
                    assert_eq!(split, input.len(), "request completed before all bytes");
                    req
                }
                Ok(None) => {
                    parser.push(&input[split..]);
                    parser
                        .poll()
                        .unwrap_or_else(|e| panic!("split {split}: {e}"))
                        .unwrap_or_else(|| panic!("split {split}: incomplete"))
                }
                Err(e) => panic!("split {split}: {e}"),
            };
            assert_eq!(got, reference, "split at byte {split}");
        }
    }
}

/// Random corruptions of valid requests, dripped at several chunk sizes:
/// the two parsers must classify every mutation identically.
#[test]
fn corrupted_requests_classify_identically_under_drip() {
    let mut rng = SmallRng::seed_from_u64(0xd21b);
    let corpus = valid_request_corpus();
    for round in 0..1500 {
        let mutated = corrupt(&corpus[round % corpus.len()], &mut rng);
        for chunk in [1, 3, 17] {
            assert_parsers_agree(&mutated, chunk);
        }
    }
}

/// Pipelined keep-alive traffic: several requests pushed through one
/// parser in 1-byte drips come out identical to sequential one-shot reads
/// of the same stream.
#[test]
fn pipelined_requests_drip_out_in_order() {
    let corpus = valid_request_corpus();
    let stream: Vec<u8> = corpus.iter().flatten().copied().collect();

    let mut reference = Vec::new();
    let mut reader = BufReader::new(&stream[..]);
    while let Some(req) = read_request(&mut reader).expect("valid stream") {
        reference.push(req);
    }
    assert_eq!(reference.len(), corpus.len());

    let mut parser = RequestParser::new();
    let mut incremental = Vec::new();
    for byte in &stream {
        parser.push(std::slice::from_ref(byte));
        while let Some(req) = parser.poll().expect("valid stream") {
            incremental.push(req);
        }
    }
    assert_eq!(incremental, reference);
    assert!(!parser.mid_request(), "stream must end at a boundary");
}

/// A deep pipelined backlog arriving in one `push` parses exactly as the
/// same requests delivered one at a time, and `buffered()` counts only the
/// bytes not yet consumed while the backlog drains (consumed bytes are
/// compacted away lazily on the next `push`).
#[test]
fn pipelined_backlog_in_one_push_matches_one_at_a_time() {
    let corpus = valid_request_corpus();
    let requests: Vec<&[u8]> = (0..200).map(|i| &corpus[i % corpus.len()][..]).collect();
    let stream: Vec<u8> = requests.concat();

    let mut one_at_a_time = Vec::new();
    let mut parser = RequestParser::new();
    for bytes in &requests {
        parser.push(bytes);
        one_at_a_time.push(parser.poll().expect("valid").expect("complete"));
        assert_eq!(parser.buffered(), 0);
        assert_eq!(parser.poll().expect("valid"), None);
    }

    let mut parser = RequestParser::new();
    parser.push(&stream);
    assert_eq!(parser.buffered(), stream.len());
    let mut remaining = stream.len();
    let mut backlog = Vec::new();
    for bytes in &requests {
        backlog.push(parser.poll().expect("valid").expect("complete"));
        remaining -= bytes.len();
        assert_eq!(parser.buffered(), remaining);
    }
    assert_eq!(parser.poll().expect("valid"), None);
    assert_eq!(backlog, one_at_a_time);
    assert!(!parser.mid_request());

    // The fully consumed backlog is dropped on the next push, and a request
    // split across that push still parses.
    let next = &requests[0];
    let (head, tail) = next.split_at(next.len() / 2);
    parser.push(head);
    assert_eq!(parser.buffered(), head.len());
    assert_eq!(parser.poll().expect("valid"), None);
    parser.push(tail);
    assert_eq!(
        parser.poll().expect("valid").as_ref(),
        Some(&one_at_a_time[0])
    );
    assert_eq!(parser.buffered(), 0);
}

/// Corruptions of a *valid* scenario document must decode, or fail with an
/// error — and whenever they decode, re-encoding must round-trip (no
/// half-parsed state).
#[test]
fn corrupted_scenarios_decode_or_error_cleanly() {
    let mut rng = SmallRng::seed_from_u64(7);
    let base = br#"{"kind":"client_server","machine":{"p":16,"st":50.0,"so":131.0,"c2":0.0},"w":1000.0,"ps":3}"#;
    let mut decoded = 0u32;
    for _ in 0..3000 {
        let mutated = corrupt(base, &mut rng);
        if let Ok(text) = std::str::from_utf8(&mutated) {
            if let Ok(doc) = parse(text) {
                if let Ok(s) = scenario_from_json(&doc) {
                    decoded += 1;
                    let again =
                        scenario_from_json(&parse(&scenario_to_json(&s).to_compact()).unwrap());
                    assert_eq!(again.unwrap(), s);
                }
            }
        }
    }
    // Some corruptions (e.g. digit flips) still decode — that's fine, they
    // are different but valid requests. The point is nothing in between.
    assert!(
        decoded > 0,
        "corruption harness too aggressive to be useful"
    );
}
