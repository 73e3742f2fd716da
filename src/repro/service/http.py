"""Minimal HTTP/1.1 layer: the service's server side and every client.

The service is stdlib-only, so this module implements just enough of
HTTP/1.1 over :func:`asyncio.start_server` streams to carry a JSON
API: request-line + header parsing, ``Content-Length`` bodies,
keep-alive, and canonical JSON responses.  It is deliberately not a
general web server — no chunked transfer, no TLS, no multipart.
"""

import asyncio
import http.client
import json
import urllib.error
import urllib.request
from urllib.parse import parse_qs, unquote, urlsplit

from repro.obs import (
    current_trace_id, format_traceparent, new_trace_id, parse_traceparent,
    span, trace_context,
)

#: Stream limit for the header block (also start_server's read limit).
MAX_HEADER_BYTES = 64 * 1024

#: Largest request body accepted (a sweep request is a few KB).
MAX_BODY_BYTES = 8 * 1024 * 1024

REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}


class ParseError(Exception):
    """Malformed request; the connection is answered 400 and closed."""


class BadRequest(Exception):
    """Client-side request error; surfaces as HTTP 400."""


class Request:
    """One parsed HTTP request."""

    def __init__(self, method, target, headers, body=b""):
        self.method = method
        self.target = target
        parts = urlsplit(target)
        self.path = unquote(parts.path)
        self.query = parse_qs(parts.query)
        self.headers = headers          # keys lower-cased
        self.body = body
        #: Matched route template, set by :meth:`Router.dispatch`.
        self.endpoint = None

    def json(self):
        """Decode the body as a JSON object (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ParseError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ParseError("JSON body must be an object")
        return payload

    @property
    def keep_alive(self):
        return self.headers.get("connection", "").lower() != "close"


class Response:
    """One HTTP response; :meth:`encode` renders the wire bytes."""

    def __init__(self, status=200, body=b"",
                 content_type="application/json", headers=None):
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = dict(headers or {})

    @classmethod
    def json(cls, payload, status=200, headers=None):
        """Canonical (sorted-keys) JSON response.

        Sorted keys make identical payloads byte-identical on the
        wire, which is what lets tests compare service output against
        the CLI path directly.
        """
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return cls(status=status, body=body, headers=headers)

    @classmethod
    def error(cls, status, message, headers=None):
        return cls.json({"error": message, "status": status},
                        status=status, headers=headers)

    def encode(self, close=False):
        reason = REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}",
                 f"Content-Type: {self.content_type}",
                 f"Content-Length: {len(self.body)}"]
        for key, value in self.headers.items():
            lines.append(f"{key}: {value}")
        lines.append("Connection: close" if close
                     else "Connection: keep-alive")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + self.body


async def read_request(reader):
    """Read one request from the stream; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None                 # client closed between requests
        raise ParseError("truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ParseError("request head too large") from exc

    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise ParseError(f"malformed request line {lines[0]!r}") from exc
    if not version.startswith("HTTP/1."):
        raise ParseError(f"unsupported protocol {version!r}")

    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"malformed header {line!r}")
        key, value = line.split(":", 1)
        headers[key.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ParseError("chunked transfer encoding not supported")

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            length = int(length)
        except ValueError as exc:
            raise ParseError("bad Content-Length") from exc
        if length > MAX_BODY_BYTES:
            raise ParseError("request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise ParseError("truncated request body") from exc
    return Request(method.upper(), target, headers, body)


class Router:
    """Method + path-template dispatch table.

    Templates use ``{name}`` segments (``/v1/jobs/{id}``); matches
    yield the handler, the captured params, and the template itself —
    the template is the stable label the metrics layer aggregates on.
    """

    def __init__(self):
        self._routes = []       # (method, segments, template, handler)

    def add(self, method, template, handler):
        segments = tuple(template.strip("/").split("/"))
        self._routes.append((method.upper(), segments, template, handler))

    def match(self, method, path):
        """Return ``(handler, params, template)``.

        Unknown path -> ``(None, None, None)``; known path but wrong
        method -> ``(None, allowed_methods, template)``.
        """
        segments = tuple(path.strip("/").split("/"))
        allowed, template_hit = [], None
        for route_method, route_segments, template, handler \
                in self._routes:
            if len(route_segments) != len(segments):
                continue
            params = {}
            for pattern, actual in zip(route_segments, segments):
                if pattern.startswith("{") and pattern.endswith("}"):
                    params[pattern[1:-1]] = actual
                elif pattern != actual:
                    break
            else:
                if route_method == method:
                    return handler, params, template
                allowed.append(route_method)
                template_hit = template
        if allowed:
            return None, sorted(allowed), template_hit
        return None, None, None

    async def dispatch(self, request):
        """Route *request* to its handler; always returns a Response.

        404 for no route, 405 with ``Allow`` for a known path under
        another method, 400 when the handler raises
        :class:`ParseError` or :class:`BadRequest`, 500 when it raises
        anything else.  ``request.endpoint`` is set to the matched
        template (``None`` when no route matched).
        """
        handler, params, template = self.match(request.method,
                                               request.path)
        request.endpoint = template
        if template is None:
            return Response.error(404, f"no route for {request.path}")
        if handler is None:
            return Response.error(
                405, f"{request.method} not allowed "
                     f"(try {', '.join(params)})",
                headers={"Allow": ", ".join(params)})
        try:
            return await handler(request, params)
        except (BadRequest, ParseError) as exc:
            return Response.error(400, str(exc))
        except Exception as exc:
            return Response.error(500, f"{type(exc).__name__}: {exc}")


async def handle_connection(dispatch, reader, writer, default_trace=None):
    """Serve requests on one connection until close/EOF.

    *dispatch* is ``async (request) -> Response`` and must not raise —
    :meth:`Router.dispatch` converts handler failures to 500s so that
    a broken handler can never wedge the connection loop.  Each call
    runs in the trace of the request's ``traceparent``, else of its
    ``X-Trace-Id``, else *default_trace*, else a fresh one, under a
    ``service.request`` span; the response echoes both headers.
    """
    try:
        while True:
            try:
                request = await read_request(reader)
            except ParseError as exc:
                writer.write(Response.error(400, str(exc))
                             .encode(close=True))
                await writer.drain()
                break
            if request is None:
                break
            trace_id = parse_traceparent(
                request.headers.get("traceparent")) \
                or request.headers.get("x-trace-id") \
                or default_trace or new_trace_id()
            obs_span = span("service.request", cat="service",
                            method=request.method, trace_id=trace_id)
            with trace_context(trace_id), obs_span:
                response = await dispatch(request)
                obs_span.set(endpoint=request.endpoint or "unmatched",
                             status=response.status)
            response.headers.setdefault("X-Trace-Id", trace_id)
            response.headers.setdefault("traceparent", format_traceparent(
                trace_id, getattr(obs_span, "id", None)))
            close = not request.keep_alive
            writer.write(response.encode(close=close))
            await writer.drain()
            if close:
                break
    except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


# ---------------------------------------------------------------------------
# Client side.

class TransportError(Exception):
    """No HTTP answer: refused, reset, timed out or torn."""


class HTTPStatusError(Exception):
    """A non-2xx answer: its ``status``, ``headers`` and ``body``."""

    def __init__(self, status, headers, body):
        super().__init__(f"HTTP {status}")
        self.status, self.headers, self.body = status, headers, body


def send_request(method, url, body=None, headers=None, *, timeout):
    """The one client transport: ``(status, headers, body)`` of a 2xx.

    One connection per request; sends the bound trace, if any, as
    ``X-Trace-Id`` and ``traceparent``.  A non-2xx answer raises
    :class:`HTTPStatusError`, no answer :class:`TransportError`;
    retries and fault hooks are the caller's.
    """
    headers = dict(headers or {})
    trace_id = current_trace_id()
    if trace_id is not None:
        headers["X-Trace-Id"] = trace_id
        headers["traceparent"] = format_traceparent()
    outgoing = urllib.request.Request(url, body, headers, method=method)
    try:
        try:
            with urllib.request.urlopen(outgoing, timeout=timeout) as ok:
                return ok.status, ok.headers, ok.read()
        except urllib.error.HTTPError as exc:
            with exc:
                failure = HTTPStatusError(exc.code, exc.headers,
                                          exc.read())
    except (OSError, http.client.HTTPException) as exc:
        raise TransportError(str(exc) or type(exc).__name__) from exc
    raise failure
