package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"ccs/internal/obs"
)

// withRecover converts a panic in next into a 500 response plus a
// structured log event carrying the stack trace, so one bad request
// cannot take down the process. The net/http sentinel
// http.ErrAbortHandler passes through untouched — it is the documented
// way to abort a response and the server handles it itself.
func (s *Server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.logger.Log("panic",
				obs.F("method", r.Method),
				obs.F("path", r.URL.Path),
				obs.F("value", fmt.Sprint(v)),
				obs.F("stack", string(debug.Stack())))
			// If the handler already wrote a header this write fails
			// silently and the client sees a truncated body — the best
			// that can be done after the fact.
			s.writeError(w, http.StatusInternalServerError, "internal error")
		}()
		next.ServeHTTP(w, r)
	})
}

// withTimeout attaches a deadline to each request's context. Handlers that
// propagate their request context — the mining endpoints do — observe it
// as cancellation; a mine request that exceeds the deadline returns 200
// with truncated=true rather than an error, which is why this is a context
// deadline and not http.TimeoutHandler's 503. When admission control is on,
// the admit middleware runs *inside* this deadline, so time spent queued
// counts against the mine budget — and a request whose deadline expires
// while it waits is answered 429, never mined.
func withTimeout(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// admissionInfo travels on the request context from the admit middleware
// to the mining handlers: the resolved tenant (with its quota handle for
// budget clamping and work charging), the time spent queued, and the shed
// stage sampled at admission — one consistent stage per request.
type admissionInfo struct {
	tenantName string
	tenant     *tenantAdmit // nil when no quota table is configured
	waited     time.Duration
	stage      int
}

type admissionInfoKey struct{}

// admissionFrom returns the request's admission record, nil when the
// request did not pass through the admit middleware.
func admissionFrom(ctx context.Context) *admissionInfo {
	info, _ := ctx.Value(admissionInfoKey{}).(*admissionInfo)
	return info
}

// admit is the overload gate in front of the mining routes, in
// cheapest-check-first order: stage-3 shedding (a single atomic read),
// the tenant's rate/concurrency/budget quota, then the global admission
// queue. Any refusal is a structured 429 with Retry-After; an admitted
// request carries its admissionInfo downstream and releases its tenant
// and admission slots when the handler returns. With neither admission
// nor quotas configured the middleware vanishes entirely.
func (s *Server) admit(next http.Handler) http.Handler {
	if s.adm == nil && s.quotas == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &admissionInfo{
			tenantName: s.quotas.tenantNameFor(r),
			stage:      s.shed.currentStage(),
		}
		if info.stage >= shedStageReject && !s.quotas.priority(info.tenantName) {
			shedActions.With("reject").Inc()
			admissionRejected.With("shed").Inc()
			s.writeOverloaded(w, &rejection{
				reason:     "shed",
				message:    "server shedding load: only priority tenants are being admitted",
				retryAfter: s.shedRetryHint(),
			})
			return
		}
		if s.quotas != nil {
			ta, rej := s.quotas.admit(info.tenantName)
			if rej != nil {
				s.writeOverloaded(w, rej)
				return
			}
			defer ta.release()
			info.tenant = ta
		}
		if s.adm != nil {
			release, waited, rej := s.adm.acquire(r.Context())
			if rej != nil {
				admissionRejected.With(rej.reason).Inc()
				s.writeOverloaded(w, rej)
				return
			}
			defer release()
			info.waited = waited
		}
		noteAdmission(r.Context(), info)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), admissionInfoKey{}, info)))
	})
}

// shedRetryHint is the back-off suggested to shed traffic: twice the
// admission gate's own hint — shed rejections mean sustained overload, so
// clients should stay away longer than a momentary queue-full blip.
func (s *Server) shedRetryHint() time.Duration {
	if s.adm != nil {
		return 2 * s.adm.retryHint()
	}
	return 2 * time.Second
}

// maxBodyBytes bounds the JSON request bodies of the query endpoints
// (/v1/mine, /v1/frequent, /v1/explain, :generate). Dataset uploads have
// their own, larger bound (maxUploadBytes).
const maxBodyBytes = 1 << 20

// decodeJSON parses a bounded JSON request body into v. On failure it
// writes the error response itself — 413 with a structured body when the
// request exceeds maxBodyBytes, 400 otherwise — and returns false.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return false
	}
	s.writeError(w, http.StatusBadRequest, "parse request: %v", err)
	return false
}
