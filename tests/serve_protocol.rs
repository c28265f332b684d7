//! Property/fuzz suite for the `ttsv-serve` HTTP layer.
//!
//! The incremental parser's contract: it is a pure function of the bytes
//! buffered so far, it never panics, and malformed input maps to a typed
//! 4xx/5xx. The suite drives that contract with five adversarial input
//! families — malformed start-lines, oversized headers, truncated
//! bodies, split-at-every-byte framing of valid requests, and pipelined
//! request chains — plus raw byte soup.

use proptest::prelude::*;
use ttsv::serve::http::{HttpError, Request, RequestParser, MAX_HEAD_BYTES};

/// Parses everything in one feed, collecting requests until NeedMore or
/// an error.
fn parse_one_shot(wire: &[u8]) -> (Vec<Request>, Option<HttpError>) {
    let mut parser = RequestParser::new();
    parser.feed(wire);
    drain(&mut parser)
}

fn drain(parser: &mut RequestParser) -> (Vec<Request>, Option<HttpError>) {
    let mut requests = Vec::new();
    loop {
        match parser.next_request() {
            Ok(Some(request)) => requests.push(request),
            Ok(None) => return (requests, None),
            Err(e) => return (requests, Some(e)),
        }
    }
}

/// Parses the same bytes split into the given chunk lengths, draining
/// after every feed (the worst-case interleaving a socket can produce).
fn parse_chunked(wire: &[u8], chunk_lens: &[usize]) -> (Vec<Request>, Option<HttpError>) {
    let mut parser = RequestParser::new();
    let mut requests = Vec::new();
    let mut offset = 0;
    let mut lens = chunk_lens.iter().copied().filter(|&n| n > 0);
    while offset < wire.len() {
        let n = lens.next().unwrap_or(1).min(wire.len() - offset);
        parser.feed(&wire[offset..offset + n]);
        offset += n;
        let (mut got, err) = drain(&mut parser);
        requests.append(&mut got);
        if err.is_some() {
            return (requests, err);
        }
    }
    (requests, None)
}

/// A lowercase ASCII token of the given length range.
fn token(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(97u8..123, len)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii range"))
}

/// A valid request the server would accept at the framing layer,
/// rendered to wire bytes.
fn valid_request() -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..3,
        token(1..6),
        prop::collection::vec((token(1..8), token(0..10)), 0..4),
        prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..40),
    )
        .prop_map(|(method_i, path, headers, body)| {
            let method = ["GET", "POST", "DELETE"][method_i];
            let mut wire = format!("{method} /{path} HTTP/1.1\r\n").into_bytes();
            for (name, value) in &headers {
                // A client header name could collide with the framing
                // headers; prefix keeps the generator independent.
                wire.extend_from_slice(format!("x-{name}: {value}\r\n").as_bytes());
            }
            // POST always needs a length; GET/DELETE carry one only when
            // they have a body (exercises both framing paths).
            if method == "POST" || !body.is_empty() {
                wire.extend_from_slice(format!("content-length: {}\r\n", body.len()).as_bytes());
            }
            wire.extend_from_slice(b"\r\n");
            wire.extend_from_slice(&body);
            wire
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Family 1: malformed start-lines must answer 400/501/505, never
    // panic, and never yield a request.
    #[test]
    fn malformed_start_lines_map_to_typed_errors(
        family in 0usize..6,
        fill in token(1..8),
    ) {
        let start = match family {
            0 => fill.clone(),                               // no spaces at all
            1 => format!("GET /{fill}"),                     // missing version
            2 => format!("get /{fill} HTTP/1.1"),            // lowercase method
            3 => format!("BREW /{fill} HTTP/1.1"),           // unknown method
            4 => format!("GET {fill} HTTP/1.1"),             // target missing '/'
            5 => format!("GET /{fill} HTTP/9.9"),            // bad version
            _ => unreachable!(),
        };
        let wire = format!("{start}\r\n\r\n");
        let (requests, err) = parse_one_shot(wire.as_bytes());
        prop_assert!(requests.is_empty(), "{start:?} produced a request");
        let err = err.expect("malformed start line must error");
        prop_assert!(
            matches!(err.status, 400 | 501 | 505),
            "{start:?} → {}", err.status
        );
    }

    // Family 2: header sections past the cap answer 431 no matter how
    // the oversize happens (one huge value, many fields, or no
    // terminator at all).
    #[test]
    fn oversized_headers_answer_431(
        shape in 0usize..3,
        extra in 1usize..2048,
    ) {
        let wire = match shape {
            0 => format!(
                "GET / HTTP/1.1\r\nbig: {}\r\n\r\n",
                "v".repeat(MAX_HEAD_BYTES + extra)
            ),
            1 => {
                let mut w = String::from("GET / HTTP/1.1\r\n");
                for i in 0..100 {
                    w.push_str(&format!("h{i}: x\r\n"));
                }
                w.push_str("\r\n");
                w
            }
            2 => "A".repeat(MAX_HEAD_BYTES + extra),
            _ => unreachable!(),
        };
        let (requests, err) = parse_one_shot(wire.as_bytes());
        prop_assert!(requests.is_empty());
        prop_assert_eq!(err.expect("oversize must error").status, 431);
    }

    // Family 3: a truncated body is NOT an error — the parser reports
    // "need more" forever (the connection layer times it out), and the
    // eventually-completed request parses normally.
    #[test]
    fn truncated_bodies_wait_instead_of_failing(
        body in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 1..60),
        cut in 0usize..59,
    ) {
        let cut = cut.min(body.len() - 1);
        let head = format!("POST /sessions HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len());
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&body[..cut]);

        let mut parser = RequestParser::new();
        parser.feed(&wire);
        let (requests, err) = drain(&mut parser);
        prop_assert!(requests.is_empty() && err.is_none(), "truncated body must wait");

        parser.feed(&body[cut..]);
        let (requests, err) = drain(&mut parser);
        prop_assert!(err.is_none());
        prop_assert_eq!(requests.len(), 1);
        prop_assert_eq!(&requests[0].body, &body);
    }

    // Family 4: split-at-every-byte framing — a valid request fed
    // byte-at-a-time (and in random chunks) parses identically to the
    // one-shot path.
    #[test]
    fn framing_is_split_invariant(
        wire in valid_request(),
        chunks in prop::collection::vec(1usize..7, 1..40),
    ) {
        let (one_shot, err) = parse_one_shot(&wire);
        prop_assert!(err.is_none(), "generator produced an invalid request: {err:?}");
        prop_assert_eq!(one_shot.len(), 1);

        let (bytewise, err) = parse_chunked(&wire, &vec![1; wire.len()]);
        prop_assert!(err.is_none());
        prop_assert_eq!(&bytewise, &one_shot);

        let (chunked, err) = parse_chunked(&wire, &chunks);
        prop_assert!(err.is_none());
        prop_assert_eq!(&chunked, &one_shot);
    }

    // Family 5: pipelined chains pop in order, whole-buffer or chunked,
    // identical to parsing each request alone.
    #[test]
    fn pipelining_preserves_order_and_content(
        wires in prop::collection::vec(valid_request(), 2..5),
        chunks in prop::collection::vec(1usize..9, 1..60),
    ) {
        let expected: Vec<Request> = wires
            .iter()
            .map(|w| parse_one_shot(w).0.remove(0))
            .collect();
        let stream: Vec<u8> = wires.concat();

        let (batch, err) = parse_one_shot(&stream);
        prop_assert!(err.is_none());
        prop_assert_eq!(&batch, &expected);

        let (chunked, err) = parse_chunked(&stream, &chunks);
        prop_assert!(err.is_none());
        prop_assert_eq!(&chunked, &expected);
    }

    // Byte soup: arbitrary bytes never panic; any error carries one of
    // the documented statuses, split-invariantly.
    #[test]
    fn arbitrary_bytes_never_panic(
        wire in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..200),
    ) {
        let (_, one_shot) = parse_one_shot(&wire);
        let (_, bytewise) = parse_chunked(&wire, &vec![1; wire.len().max(1)]);
        if let Some(e) = &one_shot {
            prop_assert!(
                matches!(e.status, 400 | 411 | 413 | 431 | 501 | 505),
                "undocumented status {}", e.status
            );
        }
        // Error detection must be split-invariant.
        prop_assert_eq!(one_shot.map(|e| e.status), bytewise.map(|e| e.status));
    }
}

/// The protocol layer rejects any JSON body the floorplan constructors
/// would reject — fuzzed through the register parser: random mutations
/// of a valid body never panic and either parse or name the problem.
#[test]
fn register_parser_survives_mutated_bodies() {
    let valid = ttsv::serve::protocol::render_register_body(
        2,
        2,
        &[vec![1.0, 2.0, 3.0, 4.0], vec![0.1, 0.2, 0.3, 0.4]],
        0.005,
    );
    assert!(ttsv::serve::protocol::parse_register(valid.as_bytes()).is_ok());
    // Truncate at every byte: never a panic, always a typed error.
    for cut in 0..valid.len() {
        let _ = ttsv::serve::protocol::parse_register(&valid.as_bytes()[..cut]);
    }
    // Single-byte corruptions.
    for i in 0..valid.len() {
        let mut corrupted = valid.clone().into_bytes();
        corrupted[i] = corrupted[i].wrapping_add(13);
        let _ = ttsv::serve::protocol::parse_register(&corrupted);
    }
}

/// A registration with fewer than 2 planes and a huge grid is a typed
/// 400, not a handler panic: the plane count is checked before the
/// via-density map is sized from `nx·ny`.
#[test]
fn huge_grid_without_planes_answers_400_without_a_panic() {
    use ttsv::serve::client::Client;
    use ttsv::serve::server::{Server, ServerConfig};

    let server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(1))
        .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let body = "{\"nx\":2147483648,\"ny\":2147483648,\"planes\":[],\"via_density\":0.01}";
    let (status, reply) = client.request("POST", "/sessions", body).expect("register");
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("at least 2 plane"), "{reply}");

    let (status, metrics) = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200, "{metrics}");
    let doc: serde::json::Value = serde::json::from_str(&metrics).expect("valid JSON");
    let panics = doc
        .get("overload")
        .and_then(|b| b.get("panics"))
        .and_then(serde::json::Value::as_usize)
        .expect("overload.panics");
    assert_eq!(panics, 0, "the registration must not panic a handler");
    server.shutdown();
}
