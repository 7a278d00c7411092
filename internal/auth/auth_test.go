package auth

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var now = time.Date(2025, 9, 1, 12, 0, 0, 0, time.UTC)

func newAuthority(t *testing.T) *Authority {
	t.Helper()
	a, err := NewAuthority([]byte("test-secret"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewMachineIDFormat(t *testing.T) {
	id, err := NewMachineID()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "node-") || len(id) != len("node-")+16 {
		t.Fatalf("machine id %q has wrong shape", id)
	}
}

func TestNewMachineIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id, err := NewMachineID()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate machine id %q", id)
		}
		seen[id] = true
	}
}

func TestIssueVerifyRoundTrip(t *testing.T) {
	a := newAuthority(t)
	tok, err := a.Issue("node-abc", RoleProvider, now)
	if err != nil {
		t.Fatal(err)
	}
	claims, err := a.Verify(tok, now.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if claims.Subject != "node-abc" || claims.Role != RoleProvider {
		t.Fatalf("claims = %+v", claims)
	}
	if claims.IssuedAt != now.Unix() {
		t.Fatalf("IssuedAt = %d, want %d", claims.IssuedAt, now.Unix())
	}
}

func TestVerifyExpired(t *testing.T) {
	a := newAuthority(t)
	tok, err := a.Issue("node-abc", RoleProvider, now)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Verify(tok, now.Add(2*time.Hour))
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

func TestVerifyExactExpiryRejected(t *testing.T) {
	a := newAuthority(t)
	tok, _ := a.Issue("node-abc", RoleProvider, now)
	if _, err := a.Verify(tok, now.Add(time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("token at exact expiry err = %v, want ErrExpired", err)
	}
}

func TestVerifyTamperedPayload(t *testing.T) {
	a := newAuthority(t)
	tok, _ := a.Issue("node-abc", RoleProvider, now)
	body, sig, _ := strings.Cut(tok, ".")
	// Flip a character in the payload.
	mutated := "A" + body[1:]
	if mutated == body {
		mutated = "B" + body[1:]
	}
	_, err := a.Verify(mutated+"."+sig, now)
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered token err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyWrongSecret(t *testing.T) {
	a := newAuthority(t)
	other, err := NewAuthority([]byte("different"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tok, _ := a.Issue("node-abc", RoleProvider, now)
	if _, err := other.Verify(tok, now); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("cross-authority verify err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyMalformed(t *testing.T) {
	a := newAuthority(t)
	for _, tok := range []string{"", "nodot", ".", "a.", ".b", "!!bad-base64!!.sig"} {
		if _, err := a.Verify(tok, now); err == nil {
			t.Errorf("Verify(%q) succeeded, want error", tok)
		}
	}
}

func TestVerifySubject(t *testing.T) {
	a := newAuthority(t)
	tok, _ := a.Issue("node-abc", RoleProvider, now)
	if _, err := a.VerifySubject(tok, "node-abc", now); err != nil {
		t.Fatalf("matching subject: %v", err)
	}
	if _, err := a.VerifySubject(tok, "node-xyz", now); !errors.Is(err, ErrWrongSubject) {
		t.Fatalf("wrong subject err = %v, want ErrWrongSubject", err)
	}
}

func TestIssueEmptySubject(t *testing.T) {
	a := newAuthority(t)
	if _, err := a.Issue("", RoleProvider, now); err == nil {
		t.Fatal("Issue with empty subject succeeded")
	}
}

func TestRandomSecretAuthoritiesIndependent(t *testing.T) {
	a1, err := NewAuthority(nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAuthority(nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tok, _ := a1.Issue("node-abc", RoleProvider, now)
	if _, err := a2.Verify(tok, now); err == nil {
		t.Fatal("token from one random authority verified by another")
	}
}

func TestDefaultTTL(t *testing.T) {
	a, err := NewAuthority([]byte("s"), 0)
	if err != nil {
		t.Fatal(err)
	}
	tok, _ := a.Issue("node-abc", RoleProvider, now)
	// Valid at day 29, expired at day 31.
	if _, err := a.Verify(tok, now.Add(29*24*time.Hour)); err != nil {
		t.Fatalf("day-29 verify: %v", err)
	}
	if _, err := a.Verify(tok, now.Add(31*24*time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("day-31 verify err = %v, want ErrExpired", err)
	}
}

// Property: any issued token verifies before expiry and yields the same
// subject, for arbitrary printable subjects.
func TestIssueVerifyProperty(t *testing.T) {
	a := newAuthority(t)
	f := func(raw []byte) bool {
		subject := "node-" + strings.Map(func(r rune) rune {
			if r < 32 || r > 126 {
				return 'x'
			}
			return r
		}, string(raw))
		tok, err := a.Issue(subject, RoleProvider, now)
		if err != nil {
			return false
		}
		claims, err := a.Verify(tok, now.Add(time.Second))
		return err == nil && claims.Subject == subject
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The verified-token cache must not weaken any property of Verify: each
// case below first verifies the original token, so it is remembered.

func TestVerifiedTokenStillExpires(t *testing.T) {
	a := newAuthority(t)
	tok, _ := a.Issue("node-abc", RoleProvider, now)
	if _, err := a.Verify(tok, now); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Verify(tok, now.Add(time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("remembered token at expiry err = %v, want ErrExpired", err)
	}
	if _, err := a.Verify(tok, now.Add(time.Minute)); err != nil {
		t.Fatalf("remembered token before expiry: %v", err)
	}
}

func TestVerifiedTokenWrongSubject(t *testing.T) {
	a := newAuthority(t)
	tok, _ := a.Issue("node-abc", RoleProvider, now)
	if _, err := a.VerifySubject(tok, "node-abc", now); err != nil {
		t.Fatal(err)
	}
	if _, err := a.VerifySubject(tok, "node-xyz", now); !errors.Is(err, ErrWrongSubject) {
		t.Fatalf("remembered token, other subject err = %v, want ErrWrongSubject", err)
	}
}

// flip returns s with the byte at i replaced by another base64url
// character.
func flip(s string, i int) string {
	c := byte('A')
	if s[i] == c {
		c = 'B'
	}
	return s[:i] + string(c) + s[i+1:]
}

func TestVerifiedTokenNeighboursRejected(t *testing.T) {
	a := newAuthority(t)
	tok, _ := a.Issue("node-abc", RoleProvider, now)
	if _, err := a.Verify(tok, now); err != nil {
		t.Fatal(err)
	}
	body, sig, _ := strings.Cut(tok, ".")
	for name, forged := range map[string]string{
		"flipped signature byte": body + "." + flip(sig, len(sig)/2),
		"flipped payload byte":   flip(body, len(body)/2) + "." + sig,
	} {
		for i := 0; i < 2; i++ { // twice: a failure must not be remembered either
			if _, err := a.Verify(forged, now); !errors.Is(err, ErrBadSignature) {
				t.Errorf("%s, attempt %d: err = %v, want ErrBadSignature", name, i+1, err)
			}
		}
	}
}

func TestVerifiedTokenStaysWithItsAuthority(t *testing.T) {
	a := newAuthority(t)
	other, err := NewAuthority([]byte("different"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tok, _ := a.Issue("node-abc", RoleProvider, now)
	if _, err := a.Verify(tok, now); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Verify(tok, now); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("token remembered by another authority err = %v, want ErrBadSignature", err)
	}
}

func TestVerifiedTokensBounded(t *testing.T) {
	a := newAuthority(t)
	// One below the bound without paying 65 535 signatures: what is
	// under test is what the next two real tokens do to the map.
	for i := 0; i < maxVerified-1; i++ {
		a.verified[fmt.Sprintf("filler-%d", i)] = Claims{}
	}
	for i, want := range []int{maxVerified, 1} {
		tok, _ := a.Issue(fmt.Sprintf("node-%d", i), RoleProvider, now)
		for j := 0; j < 2; j++ { // the second use is a hit and adds nothing
			if _, err := a.Verify(tok, now); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(a.verified); got != want {
			t.Fatalf("after token %d the authority remembers %d, want %d (bound %d)", i+1, got, want, maxVerified)
		}
	}
}

func TestVerifyConcurrent(t *testing.T) {
	a := newAuthority(t)
	var toks []string
	for i := 0; i < 8; i++ {
		tok, _ := a.Issue(fmt.Sprintf("node-%d", i), RoleProvider, now)
		toks = append(toks, tok)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := (g + i) % len(toks)
				if _, err := a.VerifySubject(toks[n], fmt.Sprintf("node-%d", n), now); err != nil {
					t.Errorf("verifier %d: %v", g, err)
					return
				}
				if _, err := a.Verify(flip(toks[n], 3), now); err == nil {
					t.Errorf("verifier %d: forged token verified", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
